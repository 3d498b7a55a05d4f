# Runs one figure/claim/ablation/ext bench for a `figures` ctest entry
# (registered in bench/CMakeLists.txt):
#
#   cmake -DBENCH=<bench binary> -DDIR=<run directory>
#         [-DJOBS_IDENTITY=ON] -P run_figure.cmake
#
# The bench runs at --jobs 1 in DIR/j1. Its stdout is echoed, so the
# entry's FAIL_REGULAR_EXPRESSION sees every SHAPE-CHECK line, and a
# non-zero exit fails the entry. With JOBS_IDENTITY the bench runs again
# at --jobs 4 in DIR/j4, and the entry fails unless that stdout is
# byte-identical to the --jobs 1 run's. Each run has its own working
# directory, so files a bench writes relative to it (fig13/fig15's
# BENCH_sweep.json) stay in the build tree and never race another entry.
cmake_minimum_required(VERSION 3.16)

foreach(var BENCH DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_figure.cmake: -D${var}=... is required")
  endif()
endforeach()

function(run_bench jobs out_var)
  set(dir ${DIR}/j${jobs})
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${BENCH} --jobs ${jobs}
    WORKING_DIRECTORY ${dir}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(jobs EQUAL 1)
    message("${out}")
  endif()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --jobs ${jobs} exited with '${rc}'")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_bench(1 serial)
if(JOBS_IDENTITY)
  run_bench(4 parallel)
  if(NOT serial STREQUAL parallel)
    file(WRITE ${DIR}/j1/stdout.txt "${serial}")
    file(WRITE ${DIR}/j4/stdout.txt "${parallel}")
    message(FATAL_ERROR
      "${BENCH}: stdout at --jobs 4 differs from --jobs 1 "
      "(diff ${DIR}/j1/stdout.txt ${DIR}/j4/stdout.txt)")
  endif()
endif()
