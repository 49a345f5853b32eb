# cealc refuses CL the RTS shim cannot run, with a located diagnostic
# per offending construct (examples_compile and ShimLimits.* cover the
# programs it must accept).
# Run as: cmake -DCEALC=<cealc> -DWORK_DIR=<dir> -P CealcShimLimits.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(_params "int a0")
set(_keys "a0")
foreach(_i RANGE 1 12)
  string(APPEND _params ", int a${_i}")
  if(_i LESS 12)
    string(APPEND _keys ", a${_i}")
  endif()
endforeach()
# A 13-parameter function, and a 12-parameter one keying a modref on all
# 12 (one past the 11 an initializer closure can carry).
string(REPLACE ", int a12" "" _params12 "${_params}")
file(WRITE "${WORK_DIR}/wide.cl"
     "func wide(${_params}) {\n  b0: done;\n}\n"
     "func keyed(${_params12}) {\n  var modref* r;\n"
     "  m0: r := modref(${_keys}); goto m1;\n  m1: done;\n}\n")
execute_process(COMMAND "${CEALC}" --emit=c "${WORK_DIR}/wide.cl"
                RESULT_VARIABLE _rc OUTPUT_QUIET ERROR_VARIABLE _err)
if(_rc EQUAL 0)
  message(FATAL_ERROR "cealc accepted functions past the shim's arity limit")
endif()
foreach(_want
    "error: function 'wide': has 13 parameters"
    "error: function 'keyed', block 'm0' (#0): modref keyed on 12 values")
  string(FIND "${_err}" "${_want}" _at)
  if(_at EQUAL -1)
    message(FATAL_ERROR "cealc's diagnostics lack \"${_want}\":\n${_err}")
  endif()
endforeach()
