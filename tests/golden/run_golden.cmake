# Golden-output check for the dtpsim CLI.
#
#   cmake -DDTPSIM=<dtpsim binary> -DGOLDEN_DIR=<tests/golden/dtpsim>
#         -DWORK_DIR=<scratch dir> [-DUPDATE=ON] -P run_golden.cmake
#
# Runs every case in GOLDEN_DIR/cases.txt and compares its exit status,
# stdout and stderr (plus the file named by --json-out, when the case passes
# one) with GOLDEN_DIR/<case>.txt. The only masked field is the wall-clock
# "N.NN Mevents/s" rate on the events line. With -DUPDATE=ON the golden
# files are rewritten from the current binary instead; review the diff.

foreach(var DTPSIM GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: -D${var}=... is required")
  endif()
  get_filename_component(${var} "${${var}}" ABSOLUTE)
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(COPY "${GOLDEN_DIR}/input/" DESTINATION "${WORK_DIR}")

file(STRINGS "${GOLDEN_DIR}/cases.txt" lines)
set(failed "")
set(count 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^#" OR line MATCHES "^[ \t]*$")
    continue()
  endif()
  if(NOT line MATCHES "^([a-z0-9_]+) (.*)$")
    message(FATAL_ERROR "run_golden.cmake: malformed case line '${line}'")
  endif()
  set(name "${CMAKE_MATCH_1}")
  set(flags "${CMAKE_MATCH_2}")
  separate_arguments(args UNIX_COMMAND "${flags}")
  execute_process(COMMAND "${DTPSIM}" ${args}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(REGEX REPLACE "[0-9]+\\.[0-9]+ Mevents/s" "<wall> Mevents/s" out "${out}")
  set(actual "$ dtpsim ${flags}\nexit: ${code}\n--- stdout\n${out}--- stderr\n${err}")
  if(flags MATCHES "--json-out=([^ ]+)")
    set(json_file "${CMAKE_MATCH_1}")
    if(EXISTS "${WORK_DIR}/${json_file}")
      file(READ "${WORK_DIR}/${json_file}" json)
      string(APPEND actual "--- ${json_file}\n${json}")
    endif()
  endif()
  math(EXPR count "${count} + 1")

  set(golden_file "${GOLDEN_DIR}/${name}.txt")
  if(UPDATE)
    file(WRITE "${golden_file}" "${actual}")
    continue()
  endif()
  set(expected "")
  if(EXISTS "${golden_file}")
    file(READ "${golden_file}" expected)
  endif()
  if(NOT actual STREQUAL expected)
    file(WRITE "${WORK_DIR}/${name}.actual" "${actual}")
    message("MISMATCH ${name}: diff ${golden_file} ${WORK_DIR}/${name}.actual")
    list(APPEND failed "${name}")
  endif()
endforeach()

if(UPDATE)
  message("rewrote ${count} golden files in ${GOLDEN_DIR}")
elseif(failed)
  list(LENGTH failed n)
  message(FATAL_ERROR "${n} of ${count} dtpsim golden cases differ: ${failed}")
else()
  message("all ${count} dtpsim golden cases match")
endif()
