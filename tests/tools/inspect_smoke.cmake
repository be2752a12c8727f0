# Records a short seeded adaptive chaos run with `alpha_sim --flight-dir` and
# checks that every alpha_inspect view of the recording exits 0 and prints
# its section header.
#
#   cmake -DSIM=alpha_sim -DINSPECT=alpha_inspect -DDIR=out \
#         -P inspect_smoke.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(
  COMMAND "${SIM}" --hops 3 --messages 20 --reliable --adaptive
          --corrupt 0.02 --dup 0.05 --reorder 0.1 --burst-loss 0.6
          --partition 32,3 --chaos-seed 1 --flight-dir "${DIR}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "alpha_sim --flight-dir exited ${rc}")
endif()

foreach(check
    "trace|== drop reasons =="
    "spans|== span summary =="
    "adapt|policy evaluations =="
    "flight|== flight recording: ")
  string(FIND "${check}" "|" bar)
  string(SUBSTRING "${check}" 0 ${bar} view)
  math(EXPR start "${bar} + 1")
  string(SUBSTRING "${check}" ${start} -1 header)
  execute_process(COMMAND "${INSPECT}" --${view} "${DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "alpha_inspect --${view} exited ${rc}")
  endif()
  string(FIND "${out}" "${header}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "alpha_inspect --${view} printed no '${header}'")
  endif()
endforeach()
