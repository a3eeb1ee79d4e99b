#include "sparse/mmio.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "sparse/convert.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace fghp::sparse {

namespace {

[[noreturn]] void fail(const std::string& path, long line, const std::string& what) {
  ErrorContext ctx;
  ctx.path = path;
  ctx.line = line;
  throw FormatError("MatrixMarket parse error at line " + std::to_string(line) + ": " + what,
                    std::move(ctx));
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// getline that strips a trailing '\r', so CRLF (Windows-saved) files parse
/// identically to LF files — otherwise the last token of every line keeps
/// the '\r' (e.g. symmetry "general\r") and valid files are rejected.
bool getline_clean(std::istream& in, std::string& line) {
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

bool blank_or_comment(const std::string& line) {
  if (line.empty() || line[0] == '%') return true;
  return line.find_first_not_of(" \t") == std::string::npos;
}

}  // namespace

Csr read_matrix_market(std::istream& in, const std::string& path) {
  trace::TraceScope span("io", "mmio.parse");
  std::string line;
  long lineNo = 0;

  if (!getline_clean(in, line)) fail(path, 1, "empty input");
  ++lineNo;

  std::istringstream banner(line);
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  if (tag != "%%MatrixMarket") fail(path, lineNo, "missing %%MatrixMarket banner");
  object = lower(object);
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  if (object != "matrix") fail(path, lineNo, "unsupported object '" + object + "'");
  if (format != "coordinate") fail(path, lineNo, "only coordinate format is supported");
  const bool pattern = field == "pattern";
  if (field != "real" && field != "integer" && field != "pattern")
    fail(path, lineNo, "unsupported field '" + field + "'");
  const bool symmetric = symmetry == "symmetric";
  const bool skew = symmetry == "skew-symmetric";
  if (!symmetric && !skew && symmetry != "general")
    fail(path, lineNo, "unsupported symmetry '" + symmetry + "'");

  // Skip comments / blank lines until the size line.
  long rows = -1, cols = -1, declared = -1;
  bool haveSize = false;
  while (getline_clean(in, line)) {
    ++lineNo;
    if (blank_or_comment(line)) continue;
    std::istringstream sz(line);
    if (!(sz >> rows >> cols >> declared)) fail(path, lineNo, "malformed size line");
    haveSize = true;
    break;
  }
  if (!haveSize) fail(path, lineNo, "missing size line");
  if (rows < 0 || cols < 0 || declared < 0)
    fail(path, lineNo, "size line entries must be non-negative");
  // Checked before any narrowing cast: 4294967297 would otherwise wrap to 1.
  constexpr long kMaxIdx = std::numeric_limits<idx_t>::max();
  if (rows > kMaxIdx || cols > kMaxIdx || declared > kMaxIdx)
    fail(path, lineNo,
         "size line entries must not exceed the index range (" + std::to_string(kMaxIdx) + ")");
  if (rows == 0 || cols == 0) {
    if (declared != 0) fail(path, lineNo, "empty matrix cannot declare nonzeros");
    return to_csr(Coo(static_cast<idx_t>(rows), static_cast<idx_t>(cols)));
  }

  Coo coo(static_cast<idx_t>(rows), static_cast<idx_t>(cols));
  long seen = 0;
  while (seen < declared && getline_clean(in, line)) {
    ++lineNo;
    if (blank_or_comment(line)) continue;
    fault::check("mmio.read", seen + 1);
    std::istringstream es(line);
    long r, c;
    double v = 1.0;
    if (!(es >> r >> c)) fail(path, lineNo, "malformed entry");
    if (!pattern) {
      // strtod, not operator>>: the latter refuses "nan" / "inf" spellings
      // outright, which would misreport them as missing instead of rejecting
      // them as non-finite.
      std::string vtok;
      if (!(es >> vtok)) fail(path, lineNo, "missing value");
      char* end = nullptr;
      v = std::strtod(vtok.c_str(), &end);
      if (end != vtok.c_str() + vtok.size())
        fail(path, lineNo, "malformed value '" + vtok + "'");
      if (!std::isfinite(v)) fail(path, lineNo, "non-finite value (NaN or Inf)");
    }
    if (r < 1 || c < 1) fail(path, lineNo, "indices must be positive (1-based)");
    if (r > rows || c > cols) fail(path, lineNo, "index out of range");
    const auto ri = static_cast<idx_t>(r - 1);
    const auto ci = static_cast<idx_t>(c - 1);
    if ((symmetric || skew) && ci > ri)
      fail(path, lineNo, "upper-triangle entry in symmetric storage");
    if (skew && ci == ri) fail(path, lineNo, "diagonal entry in skew-symmetric storage");
    coo.add(ri, ci, v);
    if ((symmetric || skew) && ri != ci) coo.add(ci, ri, skew ? -v : v);
    ++seen;
  }
  if (seen != declared) {
    std::ostringstream os;
    os << "fewer entries than declared (got " << seen << " of " << declared
       << " before end of input)";
    fail(path, lineNo, os.str());
  }
  // Duplicate (r, c) entries accumulate — the Matrix Market convention for
  // assembled files — so the CSR below never carries duplicate columns in a
  // row. Pattern files carry structure only: duplicates collapse to a single
  // unit entry instead of summing past 1 (sign kept for skew mirrors).
  coo.normalize();
  if (pattern) {
    for (auto& t : coo.entries()) t.value = t.value < 0.0 ? -1.0 : 1.0;
  }
  span.set_args("rows", rows, "entries", seen);
  static metrics::Counter& filesRead = metrics::counter("mmio.files_read");
  static metrics::Counter& entriesRead = metrics::counter("mmio.entries_read");
  filesRead.add();
  entriesRead.add(seen);
  return to_csr(std::move(coo));
}

Csr read_matrix_market_file(const std::string& path) {
  fault::check("mmio.open");
  std::ifstream in(path);
  if (!in) throw IoError("cannot open for reading: " + path, at_path(path));
  return read_matrix_market(in, path);
}

void write_matrix_market(std::ostream& out, const Csr& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by fghp\n";
  out << a.num_rows() << ' ' << a.num_cols() << ' ' << a.nnz() << '\n';
  std::ostringstream body;
  body.precision(17);
  for (idx_t r = 0; r < a.num_rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      body << (r + 1) << ' ' << (cols[k] + 1) << ' ' << vals[k] << '\n';
    }
  }
  out << body.str();
}

void write_matrix_market_file(const std::string& path, const Csr& a) {
  trace::TraceScope span("io", "mmio.write", "rows", a.num_rows(), "nnz", a.nnz());
  std::ofstream out(path);
  if (!out) throw IoError("cannot open for writing: " + path, at_path(path));
  write_matrix_market(out, a);
  out.flush();
  if (!out) throw IoError("write failed: " + path, at_path(path));
}

}  // namespace fghp::sparse
