# Writes OUTPUT, a header defining PRESTROID_GIT_SHA as the short commit of
# SOURCE_DIR ("unknown" outside a git checkout). Run at build time by the
# prestroid_git_sha target in bench/CMakeLists.txt; the header is rewritten
# only when the commit changed, so an unchanged tree rebuilds nothing.
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE result
)
if(NOT result EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
endif()
set(content "#define PRESTROID_GIT_SHA \"${sha}\"\n")
set(previous "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} previous)
endif()
if(NOT previous STREQUAL content)
  file(WRITE ${OUTPUT} "${content}")
endif()
