# Runs a figure harness and compares its stdout byte for byte with a golden
# file. On a difference it writes what the harness printed to ACTUAL and
# fails.
#
#   cmake -DEXE=<harness> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt> \
#         -P CompareOutput.cmake
#
# A change that moves a number on purpose re-blesses the golden file (copy
# ACTUAL over it) and says why in EXPERIMENTS.md.
cmake_minimum_required(VERSION 3.16)

foreach(Var EXE GOLDEN ACTUAL)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "CompareOutput.cmake: -D${Var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${EXE} failed: ${Rc}")
endif()
file(READ "${GOLDEN}" Want)
if(NOT Out STREQUAL Want)
  file(WRITE "${ACTUAL}" "${Out}")
  message(FATAL_ERROR "${EXE} output differs from ${GOLDEN}.\n"
                      "It printed ${ACTUAL}; compare with: diff ${GOLDEN} ${ACTUAL}")
endif()
