# Runs a command and fails unless it exits with the expected status:
#
#   cmake -DEXPECT=<status> -P expect_exit.cmake -- <command> [args...]
#
# The command's stderr is echoed, so a failing entry shows the error
# the command printed. With -DFILE=<path> -DMATCH=<regex> the file the
# command writes must also match the regular expression; it is removed
# first, so a stale copy cannot pass. An argument may hold a ';' (pass it
# as $<SEMICOLON> in add_test): it reaches the command as one argument.
cmake_minimum_required(VERSION 3.16)

set(command "")
set(after_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    string(REPLACE ";" "\\;" arg "${CMAKE_ARGV${i}}")
    list(APPEND command "${arg}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator ON)
  endif()
endforeach()
if(NOT DEFINED EXPECT OR command STREQUAL "")
  message(FATAL_ERROR "usage: cmake -DEXPECT=<status> -P expect_exit.cmake -- <command>")
endif()

if(DEFINED FILE)
  file(REMOVE "${FILE}")
endif()
execute_process(COMMAND ${command} RESULT_VARIABLE rc ERROR_VARIABLE err)
message("${err}")
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "'${command}' exited with '${rc}', expected ${EXPECT}")
endif()
if(DEFINED FILE)
  file(READ "${FILE}" content)
  if(NOT content MATCHES "${MATCH}")
    message(FATAL_ERROR "${FILE} does not match '${MATCH}':\n${content}")
  endif()
endif()
