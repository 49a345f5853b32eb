# Fails when any file under SRC_DIR mentions getenv (which also catches
# secure_getenv) or holds a "/proc/ or "/sys/ path literal: the library
# is described by its Config alone and never probes the host, so huge
# pages, say, stay advice the kernel may ignore rather than a branch on
# what the host reports. Run as: cmake -DSRC_DIR=<repo>/src -P NoGetenv.cmake
file(GLOB_RECURSE _files "${SRC_DIR}/*")
set(_hits "")
foreach(_f ${_files})
  file(STRINGS "${_f}" _lines REGEX "getenv|\"/(proc|sys)/")
  if(_lines)
    list(APPEND _hits "${_f}: ${_lines}")
  endif()
endforeach()
if(_hits)
  list(JOIN _hits "\n" _report)
  message(FATAL_ERROR "environment or host probe under src/:\n${_report}")
endif()
