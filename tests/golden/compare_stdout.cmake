# Runs a bench and compares its stdout byte for byte with a golden file.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P compare_stdout.cmake
#
# ACTUAL receives the run's stdout and is kept for diffing on failure.
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
