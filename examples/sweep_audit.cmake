# The audit gate (docs/audit.md): `sweep --audit` over the built-in suite
# must exit 0 and report the whole grid — 10 programs x 9 placement schemes
# x 3 implication modes = 270 cells — without a failure. An audit finding,
# a provenance mismatch, a compile failure or a shrunken grid fails it.
# Run with
#   cmake -DSWEEP=<path-to-sweep> [-DARGS="--cache --provenance"]
#         -P sweep_audit.cmake
if(NOT DEFINED SWEEP)
  message(FATAL_ERROR "pass -DSWEEP=<path to the sweep binary>")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")

execute_process(COMMAND ${SWEEP} --audit ${args}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep --audit ${ARGS} exited with ${rc}\n${err}")
endif()
if(NOT out MATCHES "sweep: 270 compilations, 0 failures\n")
  message(FATAL_ERROR
    "sweep --audit ${ARGS} did not report 270 clean cells:\n${out}")
endif()
string(REGEX MATCH "sweep: audit: [^\n]*" totals "${out}")
if(NOT totals)
  message(FATAL_ERROR "sweep --audit ${ARGS} printed no audit totals")
endif()
message(STATUS "sweep --audit ${ARGS}: 270 cells clean; ${totals}")
