# Runs one sweep, writing its document to ${DOC}, then validates the
# document with check_sweep.py.  Fails on any non-zero status from either.
#
#   cmake -DBENCH=<bench_sweep> -DSWEEP=<name> [-DSCHEDULE=<shape>]
#         -DDOC=<path> -DPYTHON=<python3> -DCHECK=<check_sweep.py>
#         -P sweep_test.cmake
set(run ${BENCH} ${SWEEP} --out ${DOC})
if(SCHEDULE)
  list(APPEND run --schedule ${SCHEDULE})
endif()
foreach(step "${run}" "${PYTHON};${CHECK};${DOC}")
  execute_process(COMMAND ${step} RESULT_VARIABLE status)
  if(NOT "${status}" STREQUAL "0")
    list(JOIN step " " shown)
    message(FATAL_ERROR "exit status '${status}': ${shown}")
  endif()
endforeach()
