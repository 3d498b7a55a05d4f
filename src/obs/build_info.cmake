# Writes the build identity header that run manifests embed:
#
#   cmake -DIN=build_info.hpp.in -DOUT=<header> -DCMAKE_BUILD_TYPE=<type>
#         -P build_info.cmake
#
# src/obs/CMakeLists.txt runs it at every build, so a tree that is
# rebuilt without reconfiguring still names the commit it was built
# from. configure_file leaves OUT untouched when its content would not
# change, so an up-to-date tree recompiles nothing. Without git, or
# outside a checkout, the describe string is "unknown".
cmake_minimum_required(VERSION 3.16)

execute_process(
  COMMAND git describe --always --dirty --tags
  WORKING_DIRECTORY ${CMAKE_CURRENT_LIST_DIR}
  OUTPUT_VARIABLE ROUTESYNC_GIT_DESCRIBE
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR ROUTESYNC_GIT_DESCRIBE STREQUAL "")
  set(ROUTESYNC_GIT_DESCRIBE "unknown")
endif()
configure_file(${IN} ${OUT} @ONLY)
