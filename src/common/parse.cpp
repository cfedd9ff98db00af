#include "common/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dtpsim {

double parse_real(const std::string& what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || !std::isfinite(v))
    throw std::invalid_argument(what + ": expected a finite number, got '" + text + "'");
  return v;
}

std::string format_real(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace dtpsim
