# Runs the command that follows "--" and fails unless it exits with
# exactly ${EXPECT}.  A crash or a different status fails the test, which
# ctest's WILL_FAIL (any non-zero status passes) cannot tell apart.
#
#   cmake -DEXPECT=2 -P expect_exit.cmake -- <program> [args...]
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status)
if(NOT "${status}" STREQUAL "${EXPECT}")
  list(JOIN cmd " " shown)
  message(FATAL_ERROR "exit status '${status}', expected ${EXPECT}: ${shown}")
endif()
