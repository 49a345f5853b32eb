# Tier-1 smoke of the benches: runs table1_summary, fig13_tcon,
# table2_vs_sasml and fig14_heaplimit at smoke sizes, and the compiler
# benches table3_compiler and fig15_compile_scaling as they are, inside
# WORK_DIR (under the build tree, so the committed BENCH_table1.json is
# never overwritten). Fails unless all six exit 0, the written
# BENCH_table1.json has all 12 Table 1 rows, each with a positive
# max_live_bytes, and Figure 14's 0.90x headroom row reads OOM at every
# size (a heap below the comparator's live trace must overflow). No time
# gates: sanitized builds run this too.
# Run as: cmake -DTABLE1=<exe> -DFIG13=<exe> -DTABLE2=<exe> -DFIG14=<exe>
#           -DTABLE3=<exe> -DFIG15=<exe> -DWORK_DIR=<dir> -P BenchSmoke.cmake
cmake_minimum_required(VERSION 3.19) # string(JSON)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(_cmd "${TABLE1};--scale=0.002;--samples=4"
             "${FIG13};--scale=0.05;--samples=4"
             "${TABLE2};--scale=0.01;--samples=4"
             "${FIG14};--scale=0.05;--samples=4"
             "${TABLE3}"
             "${FIG15}")
  execute_process(COMMAND ${_cmd} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE _rc OUTPUT_VARIABLE _out
                  ERROR_VARIABLE _out)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${_cmd} exited with ${_rc}:\n${_out}")
  endif()
  list(GET _cmd 0 _exe)
  if(_exe STREQUAL FIG14)
    set(_fig14 "${_out}")
  endif()
endforeach()

string(REGEX MATCH "\n *0\\.90x[^\n]*" _row "${_fig14}")
if(NOT _row MATCHES "^\n *0\\.90x( +OOM)+$")
  message(FATAL_ERROR "fig14_heaplimit's 0.90x row is not all OOM:\n${_fig14}")
endif()

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
