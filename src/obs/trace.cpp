#include "obs/trace.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "support/parse.hpp"

namespace arl::obs {
namespace {

using support::hex64;

/// Minimal JSON string escape.  The strings traced today are registry
/// tokens (no quotes or control bytes), but the writer must not be the
/// component that breaks when a protocol name ever grows one.
std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream hex;
          hex << "\\u" << std::hex << std::setw(4) << std::setfill('0') << static_cast<int>(c);
          out += hex.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

JsonLinesTraceSink::JsonLinesTraceSink(const std::string& path) : out_(path, std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
}

void JsonLinesTraceSink::emit(const TraceEvent& event) {
  // Compose the whole line off-lock, then append under the mutex so lines
  // from concurrent workers never interleave.
  std::ostringstream line;
  line << "{\"job\":" << event.job_id << ",\"protocol\":\"" << escape(event.protocol)
       << "\",\"config\":\"" << hex64(event.config_fingerprint) << "\",\"nodes\":" << event.nodes
       << ",\"span\":" << event.span << ",\"disposition\":\"" << escape(event.disposition)
       << "\",\"feasible\":" << (event.feasible ? "true" : "false")
       << ",\"simulated\":" << (event.simulated ? "true" : "false")
       << ",\"valid\":" << (event.valid ? "true" : "false")
       << ",\"local_rounds\":" << event.local_rounds << ",\"injected\":" << event.injected;
  for (const Phase phase : all_phases()) {
    line << ",\"" << phase_name(phase) << "_ns\":" << event.frame[phase];
  }
  line << "}";

  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << line.str() << '\n';
}

void JsonLinesTraceSink::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
}

}  // namespace arl::obs
