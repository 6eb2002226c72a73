# A driver handed a malformed flag value must refuse it with exit status 2
# and a usage message, instead of salvaging a number from the text. Run with
#   cmake -DTOOL=<path-to-binary> -DARGS="--jobs fast"
#         -P expect_usage_error.cmake
if(NOT DEFINED TOOL OR NOT DEFINED ARGS)
  message(FATAL_ERROR "pass -DTOOL=<path to the binary> -DARGS=<arguments>")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")

execute_process(COMMAND ${TOOL} ${args}
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${TOOL} ${ARGS} exited with ${rc}, expected 2\n${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "${TOOL} ${ARGS} printed no usage message:\n${err}")
endif()
message(STATUS "${TOOL} ${ARGS}: rejected with exit 2")
