# Runs table1_summary and fig13_tcon at smoke sizes, and the compiler
# benches table3_compiler and fig15_compile_scaling as they are, inside
# WORK_DIR (under the build tree, so the committed BENCH_table1.json is
# never overwritten). Fails unless all four exit 0 and the written
# BENCH_table1.json has all 12 Table 1 rows, each with a positive
# max_live_bytes. No time gates: sanitized builds run this too.
# Run as: cmake -DTABLE1=<exe> -DFIG13=<exe> -DTABLE3=<exe> -DFIG15=<exe>
#           -DWORK_DIR=<dir> -P BenchSmoke.cmake
cmake_minimum_required(VERSION 3.19) # string(JSON)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(_cmd "${TABLE1};--scale=0.002;--samples=4"
             "${FIG13};--scale=0.05;--samples=4"
             "${TABLE3}"
             "${FIG15}")
  execute_process(COMMAND ${_cmd} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE _rc OUTPUT_VARIABLE _out
                  ERROR_VARIABLE _out)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${_cmd} exited with ${_rc}:\n${_out}")
  endif()
endforeach()

file(READ "${WORK_DIR}/BENCH_table1.json" _json)
string(JSON _rows LENGTH "${_json}" rows)
if(NOT _rows EQUAL 12)
  message(FATAL_ERROR "BENCH_table1.json has ${_rows} rows, not 12")
endif()
math(EXPR _last "${_rows} - 1")
foreach(_i RANGE ${_last})
  string(JSON _name GET "${_json}" rows ${_i} name)
  string(JSON _live GET "${_json}" rows ${_i} max_live_bytes)
  if(NOT _live GREATER 0)
    message(FATAL_ERROR "row ${_name}: max_live_bytes is ${_live}")
  endif()
endforeach()
