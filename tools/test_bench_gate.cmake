# CTest script rehearsing the full `holmes_cli bench` baseline gate:
#   1. record a baseline trajectory (in-process probe only, no bench bins),
#   2. an identical re-run diffed against it must pass --fail-over 25,
#   3. a deliberately slowed re-run (HOLMES_BENCH_DELIBERATE_DELAY_MS) must
#      trip the same gate with a non-zero exit.
# Each leg's output is kept in bench_gate_<leg>.log in the test's binary
# dir, and a failing leg's gate report is quoted in the failure message, so
# a wall-time flake on a shared host leaves its evidence behind.
# Run as: cmake -DCLI=<path-to-holmes_cli> -P test_bench_gate.cmake

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to holmes_cli>")
endif()

set(BASELINE "${CMAKE_CURRENT_BINARY_DIR}/bench_gate_baseline.json")

# Runs one leg (the command in ARGN), writes its merged stdout and stderr
# to bench_gate_<LEG>.log, and sets <LEG>_rc to its exit code and
# <LEG>_gate to its gate report: the baseline comparison and any trips.
function(run_leg LEG)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE out)
  set(log "${CMAKE_CURRENT_BINARY_DIR}/bench_gate_${LEG}.log")
  file(WRITE "${log}" "${out}")
  string(FIND "${out}" "\nbaseline " at)
  if(at GREATER -1)
    string(SUBSTRING "${out}" ${at} -1 gate)
  else()
    set(gate "(no baseline comparison in the output)")
  endif()
  set(${LEG}_rc ${rc} PARENT_SCOPE)
  set(${LEG}_gate "${gate}\n(full output: ${log})" PARENT_SCOPE)
endfunction()

run_leg(record "${CLI}" bench --repeat 3 --warmup 1 --json=${BASELINE})
if(NOT record_rc EQUAL 0)
  message(FATAL_ERROR "baseline recording failed (rc=${record_rc}); output "
          "in ${CMAKE_CURRENT_BINARY_DIR}/bench_gate_record.log")
endif()

run_leg(identical "${CLI}" bench --repeat 3 --warmup 1
        --baseline ${BASELINE} --fail-over 25)
if(NOT identical_rc EQUAL 0)
  message(FATAL_ERROR
          "identical re-run tripped the gate (rc=${identical_rc}); the noise "
          "floor or counters are unstable:${identical_gate}")
endif()

run_leg(delayed "${CMAKE_COMMAND}" -E env HOLMES_BENCH_DELIBERATE_DELAY_MS=400
        "${CLI}" bench --repeat 3 --warmup 1
        --baseline ${BASELINE} --fail-over 25)
if(delayed_rc EQUAL 0)
  message(FATAL_ERROR
          "deliberately slowed run passed the gate; --fail-over is not "
          "catching timing regressions:${delayed_gate}")
endif()

message(STATUS "bench gate rehearsal OK: clean pass, slowdown tripped")
