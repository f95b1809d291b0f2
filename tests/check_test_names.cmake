# Stable test identity check, run as a ctest script test:
#
#   cmake -DBINARIES="bin1|bin2|..." -P check_test_names.cmake
#
# gtest_discover_tests registers every test with ctest under a name built
# from `--gtest_list_tests`: a value-parameterized test listed as
# `Name/3  # GetParam() = V` becomes `Suite.Name/V`. A parameter type with no
# printer is printed as raw bytes ("16-byte object <..>"), padding included,
# so such ids change from one run or build to the next and every comparison
# of test lists counts them as removed and re-added.
#
# A parameter printed after a generated name (`Name/unix  # GetParam() = V`)
# stays in the id whole, comment and all, because only a numeric index is
# replaced.
#
# Fails when a binary's two listings differ, or when a registered id (built
# the way gtest_discover_tests builds it) contains a raw-bytes dump or a
# `# GetParam()` comment.

if(NOT BINARIES)
  message(FATAL_ERROR "check_test_names: pass -DBINARIES=\"a|b|...\"")
endif()
string(REPLACE "|" ";" binaries "${BINARIES}")

set(problems "")
foreach(binary IN LISTS binaries)
  foreach(run 1 2)
    execute_process(
      COMMAND "${binary}" --gtest_list_tests
      OUTPUT_VARIABLE listing_${run}
      ERROR_VARIABLE errors
      RESULT_VARIABLE status
      TIMEOUT 60)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR
        "check_test_names: ${binary} --gtest_list_tests failed (${status}):\n"
        "${errors}")
    endif()
  endforeach()
  get_filename_component(name "${binary}" NAME)
  if(NOT listing_1 STREQUAL listing_2)
    string(APPEND problems
      "${name}: two --gtest_list_tests runs listed different tests\n")
  endif()

  # One list element per line; brackets and semicolons in names would
  # otherwise bend CMake's list splitting.
  string(REPLACE "[" "<osb>" lines "${listing_1}")
  string(REPLACE "]" "<csb>" lines "${lines}")
  string(REPLACE ";" "<sc>" lines "${lines}")
  string(REPLACE "\n" ";" lines "${lines}")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^  ")
      continue()  # a suite line
    endif()
    # The id ctest registers: the printed value replaces a numeric index;
    # after any other name the comment stays.
    string(STRIP "${line}" test_id)
    string(REGEX REPLACE "/[0-9]+[ #]+GetParam\\(\\) = " "/" test_id
      "${test_id}")
    set(problem "")
    if(test_id MATCHES "byte object")
      set(problem "is a raw-bytes dump of its parameter")
    elseif(test_id MATCHES "# GetParam\\(\\)")
      set(problem "keeps its parameter as a `# GetParam()` comment")
    endif()
    if(problem)
      string(REPLACE "<osb>" "[" test_id "${test_id}")
      string(REPLACE "<csb>" "]" test_id "${test_id}")
      string(REPLACE "<sc>" ";" test_id "${test_id}")
      string(APPEND problems "${name}: test id ${problem}: ${test_id}\n")
    endif()
  endforeach()
endforeach()

if(problems)
  message(FATAL_ERROR "check_test_names: unstable test names\n${problems}"
    "Give the parameter type a PrintTo instead of a name generator (see "
    "tests/smp/test_schedules.cpp).")
endif()
list(LENGTH binaries count)
message(STATUS "check_test_names: ${count} test binaries list stable names")
