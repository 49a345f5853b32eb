# Fails when cealc cannot compile an example CL source to C: any parse or
# verifier error in one of them fails the whole test, with cealc's
# rendered diagnostics in the report.
# Run as:
#   cmake -DCEALC=<cealc> -DEXAMPLES_DIR=<repo>/examples -P ExamplesCompile.cmake
file(GLOB _sources "${EXAMPLES_DIR}/*.cl")
if(NOT _sources)
  message(FATAL_ERROR "no CL sources under ${EXAMPLES_DIR}")
endif()
set(_report "")
foreach(_src ${_sources})
  execute_process(COMMAND "${CEALC}" --emit=c "${_src}"
                  RESULT_VARIABLE _rc OUTPUT_QUIET ERROR_VARIABLE _err)
  if(NOT _rc EQUAL 0)
    string(APPEND _report "${_src} (exit ${_rc}):\n${_err}")
  endif()
endforeach()
if(_report)
  message(FATAL_ERROR "cealc rejected example CL sources:\n${_report}")
endif()
list(LENGTH _sources _n)
message(STATUS "cealc compiled ${_n} example CL source(s)")
