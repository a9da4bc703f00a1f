# CI smoke for --trace: runs real-protocol benches with tracing on and
# validates that each emitted file is well-formed Chrome-trace JSON with at
# least one event. Invoked by the `trace_smoke` ctest as
#   cmake -DBENCH=<figure-bench> -DTRACE=<output-path>
#         -DSERVING_BENCH=<throughput_serving> -DSERVING_TRACE=<output-path>
#         -DSERVING_JSON=<summary-path> -P trace_smoke.cmake
function(check_trace bench trace)
  file(REMOVE "${trace}")
  execute_process(COMMAND "${bench}" --trace "${trace}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}")
  endif()
  if(NOT EXISTS "${trace}")
    message(FATAL_ERROR "no trace written to ${trace}")
  endif()
  file(READ "${trace}" content)
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    # string(JSON) fatals on malformed JSON, which is exactly what we want.
    string(JSON n LENGTH "${content}" traceEvents)
    if(n LESS 1)
      message(FATAL_ERROR "trace has no events: ${trace}")
    endif()
  else()
    string(FIND "${content}" "\"traceEvents\":[" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "not a chrome trace: ${trace}")
    endif()
  endif()
endfunction()

check_trace("${BENCH}" "${TRACE}")
check_trace("${SERVING_BENCH}" "${SERVING_TRACE}" --rate 120
            --duration-ms 300 --json "${SERVING_JSON}")
