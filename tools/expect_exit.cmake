# Runs a command and fails unless it exits with the expected status:
#
#   cmake -DEXPECT=<status> -P expect_exit.cmake -- <command> [args...]
#
# The command's stderr is echoed, so a failing entry shows the error
# the command printed. With -DFILE=<path> -DMATCH=<regex>[;<regex>...]
# the file the command writes must also match each regular expression;
# it is removed first, so a stale copy cannot pass. With -DSTDOUT=<path>
# the command's stdout goes to that file instead of the entry's output.
# An argument may hold a ';' (pass it as $<SEMICOLON> in add_test): it
# reaches the command as one argument.
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
if(DEFINED STDOUT)
  set(output OUTPUT_FILE "${STDOUT}")
endif()
execute_process(COMMAND ${command} ${output} RESULT_VARIABLE rc ERROR_VARIABLE err)
message("${err}")
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "'${command}' exited with '${rc}', expected ${EXPECT}")
endif()
if(DEFINED FILE)
  file(READ "${FILE}" content)
  foreach(regex IN LISTS MATCH)
    if(NOT content MATCHES "${regex}")
      message(FATAL_ERROR "${FILE} does not match '${regex}':\n${content}")
    endif()
  endforeach()
endif()
