# Runs `BENCH ARGS` and fails unless it exits 0 and its stdout equals
# GOLDEN byte for byte; on a mismatch the output is left in
# <golden name>.actual in the working directory for diffing. The caller sets
# AF_BACKEND/AF_THREADS in the environment, which the bench inherits.
#   cmake -DBENCH=<binary> [-DARGS=--verify] -DGOLDEN=<file> -P check_verify.cmake
execute_process(COMMAND "${BENCH}" ${ARGS}
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR "${BENCH} ${ARGS} differs from ${GOLDEN}; "
                      "diff it against ${name}.actual")
endif()
