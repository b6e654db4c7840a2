# Runs one bench in quick mode and diffs its stdout byte for byte against
# a committed golden file. No tolerance: any moved digit fails.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DOUT=<output .txt>
#         -P golden_diff.cmake
#
# Quick mode is what the goldens record. The campaign JSON directory is
# cleared so a golden run never writes into a directory set for another
# run.

foreach(var BENCH GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_diff.cmake: -D${var}=... is required")
  endif()
endforeach()

set(ENV{GRIDSUB_BENCH_QUICK} 1)
unset(ENV{GRIDSUB_CAMPAIGN_JSON_DIR})

execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
  find_program(GOLDEN_DIFF_TOOL diff)
  if(GOLDEN_DIFF_TOOL)
    execute_process(COMMAND ${GOLDEN_DIFF_TOOL} -u ${GOLDEN} ${OUT})
  endif()
  message(FATAL_ERROR
    "stdout of ${BENCH} differs from ${GOLDEN} (actual output: ${OUT}). "
    "If the change is intended, regenerate the golden in the same commit: "
    "GRIDSUB_BENCH_QUICK=1 ${BENCH} > ${GOLDEN}")
endif()
