# Smoke-runs one example program (ctest script mode):
#
#   cmake -DEXAMPLE=<binary> -DRUN_DIR=<dir> [-DWAL=ON] -P run_example.cmake
#
# RUN_DIR is recreated empty and becomes the working directory; stdin is
# an empty file. With WAL=ON the program gets RUN_DIR/wal as its first
# argument, a fresh WAL directory. Fails unless the program exits 0.
file(REMOVE_RECURSE "${RUN_DIR}")
file(MAKE_DIRECTORY "${RUN_DIR}")
file(WRITE "${RUN_DIR}/stdin" "")
set(args "")
if(WAL)
  set(args "${RUN_DIR}/wal")
endif()
execute_process(
  COMMAND "${EXAMPLE}" ${args}
  WORKING_DIRECTORY "${RUN_DIR}"
  INPUT_FILE "${RUN_DIR}/stdin"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with status ${status}")
endif()
