#include "src/common/csv.h"

#include <fstream>
#include <sstream>

#include "src/common/fault_injection.h"

namespace dime {

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError(path + ": cannot open");
  if (DIME_FAULT_POINT(failpoints::kIoRead)) {
    return IoError(path + ": injected read fault");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return IoError(path + ": read failed");
  return std::move(buf).str();
}

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return NotFoundError(path + ": cannot create");
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) return IoError(path + ": write failed");
  return OkStatus();
}

}  // namespace dime
