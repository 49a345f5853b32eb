# Fails when any file under SRC_DIR mentions getenv (which also catches
# secure_getenv). Run as: cmake -DSRC_DIR=<repo>/src -P NoGetenv.cmake
file(GLOB_RECURSE _files "${SRC_DIR}/*")
set(_hits "")
foreach(_f ${_files})
  file(STRINGS "${_f}" _lines REGEX "getenv")
  if(_lines)
    list(APPEND _hits "${_f}: ${_lines}")
  endif()
endforeach()
if(_hits)
  list(JOIN _hits "\n" _report)
  message(FATAL_ERROR "getenv under src/:\n${_report}")
endif()
