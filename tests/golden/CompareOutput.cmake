# Runs a program and compares its stdout byte for byte with the
# concatenation of one or more golden files. On a difference it writes what
# the program printed to ACTUAL and fails.
#
#   cmake -DEXE=<program> [-DARGS=<arg;arg...>] -DGOLDEN=<a.txt;b.txt...> \
#         -DACTUAL=<out.txt> -P CompareOutput.cmake
#
# A change that moves a number on purpose re-blesses the golden file and
# says why in EXPERIMENTS.md.
cmake_minimum_required(VERSION 3.16)

foreach(Var EXE GOLDEN ACTUAL)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "CompareOutput.cmake: -D${Var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${EXE}" ${ARGS} OUTPUT_VARIABLE Out
                RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} failed: ${Rc}")
endif()
set(Want "")
foreach(File IN LISTS GOLDEN)
  file(READ "${File}" Part)
  string(APPEND Want "${Part}")
endforeach()
if(NOT Out STREQUAL Want)
  file(WRITE "${ACTUAL}" "${Out}")
  message(FATAL_ERROR "${EXE} output differs from ${GOLDEN}.\n"
                      "It printed ${ACTUAL}; compare with the golden "
                      "files in order, e.g. cat <golden files> | diff - ${ACTUAL}")
endif()
