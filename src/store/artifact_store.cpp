#include "store/artifact_store.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "config/fingerprint.hpp"
#include "config/io.hpp"
#include "core/schedule_io.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/line_io.hpp"
#include "support/parse.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ARL_STORE_HAS_POSIX_IO 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ARL_STORE_HAS_POSIX_IO 0
#include <cstdio>
#include <filesystem>
#endif

namespace arl::store {

namespace {

/// Store-private key domain, distinct from the config/schedule/classification
/// fingerprint seeds, so entry names never alias any of the content digests
/// the entry embeds.
constexpr std::uint64_t kEntryKeySeed = 0x5704EULL;

/// Seed of the trailing `end` digest over the entry body.
constexpr std::uint64_t kBodyDigestSeed = 0x5704EB0D7ULL;

std::uint64_t entry_key(const config::Configuration& configuration, radio::ChannelModel model,
                        bool fast_classifier) {
  return support::Hash64(kEntryKeySeed)
      .absorb(config::fingerprint(configuration))
      .absorb(static_cast<std::uint64_t>(model))
      .absorb(fast_classifier ? 1 : 0)
      .digest();
}

/// Composes the full entry file contents (including the `end` line).
std::string compose_entry(std::uint64_t key, const config::Configuration& configuration,
                          radio::ChannelModel model, bool fast_classifier,
                          const core::CompiledConfiguration& compiled) {
  std::ostringstream body;
  body << "arl-artifact 1\n";
  body << "key " << support::hex64(key) << '\n';
  body << "model " << (model == radio::ChannelModel::CollisionDetection ? "cd" : "nocd") << '\n';
  body << "fast " << (fast_classifier ? 1 : 0) << '\n';
  body << "config-fingerprint " << support::hex64(config::fingerprint(configuration)) << '\n';
  body << "classification-fingerprint "
       << support::hex64(core::classification_fingerprint(compiled.classification)) << '\n';
  if (compiled.schedule != nullptr) {
    body << "schedule-fingerprint "
         << support::hex64(core::schedule_fingerprint(*compiled.schedule)) << '\n';
  } else {
    body << "schedule-fingerprint -\n";
  }
  config::to_text(configuration, body);
  core::classification_to_text(compiled.classification, body);
  if (compiled.schedule != nullptr) {
    core::schedule_to_text(*compiled.schedule, body);
  }
  std::string text = body.str();
  text += "end " + support::hex64(support::hash_text_bulk(text, kBodyDigestSeed)) + '\n';
  return text;
}

/// Parses and fully verifies an entry file's contents against the queried
/// key.  Throws (support::ContractViolation or std::exception) on any
/// corruption or mismatch; the caller turns that into a rejected miss.
core::CompiledConfiguration parse_entry(const std::string& text, std::uint64_t key,
                                        const config::Configuration& configuration,
                                        radio::ChannelModel model, bool fast_classifier) {
  // The `end` line is the last one; everything before it is covered by the
  // digest.  Splitting on the raw bytes (not content lines) means a single
  // flipped bit anywhere — even in a comment — rejects the file.
  ARL_EXPECTS(!text.empty() && text.back() == '\n', "artifact must end in a newline");
  const auto last_line_start = text.rfind('\n', text.size() - 2);
  ARL_EXPECTS(last_line_start != std::string::npos, "artifact has no body");
  const std::string end_line = text.substr(last_line_start + 1, text.size() - last_line_start - 2);
  const std::string body = text.substr(0, last_line_start + 1);
  {
    std::istringstream parse(end_line);
    std::string keyword;
    std::string digest;
    parse >> keyword >> digest;
    ARL_EXPECTS(!parse.fail() && keyword == "end", "artifact missing 'end' digest line");
    ARL_EXPECTS(support::parse_hex64<support::ContractViolation>(digest, "end") ==
                    support::hash_text_bulk(body, kBodyDigestSeed),
                "artifact body digest mismatch");
  }

  std::istringstream in(body);
  std::string line;
  std::string keyword;
  std::string value;
  const auto field = [&](const char* name) {
    ARL_EXPECTS(support::next_content_line(in, line), "artifact truncated");
    std::istringstream parse(line);
    parse >> keyword >> value;
    ARL_EXPECTS(!parse.fail() && keyword == name, "malformed artifact header field");
  };
  const auto hex_field = [&](const char* name) {
    field(name);
    return support::parse_hex64<support::ContractViolation>(value, name);
  };

  field("arl-artifact");
  ARL_EXPECTS(value == "1", "unknown artifact format version");
  ARL_EXPECTS(hex_field("key") == key, "artifact key mismatch");
  field("model");
  ARL_EXPECTS(value == (model == radio::ChannelModel::CollisionDetection ? "cd" : "nocd"),
              "artifact channel model mismatch");
  field("fast");
  ARL_EXPECTS(value == (fast_classifier ? "1" : "0"), "artifact classifier choice mismatch");
  ARL_EXPECTS(hex_field("config-fingerprint") == config::fingerprint(configuration),
              "artifact configuration fingerprint mismatch");
  const std::uint64_t classification_digest = hex_field("classification-fingerprint");
  field("schedule-fingerprint");
  const bool has_schedule = value != "-";
  const std::uint64_t schedule_digest =
      has_schedule ? support::parse_hex64<support::ContractViolation>(value, "schedule-fingerprint")
                   : 0;

  // The embedded sections.  config::from_text is self-terminating, so the
  // sections parse back to back from the same stream.
  const config::Configuration stored = config::from_text(in);
  ARL_EXPECTS(stored == configuration,
              "artifact stores a different configuration (key collision)");

  core::CompiledConfiguration compiled;
  compiled.classification = core::classification_from_text(in);
  ARL_EXPECTS(core::classification_fingerprint(compiled.classification) == classification_digest,
              "artifact classification fingerprint mismatch");
  ARL_EXPECTS(compiled.classification.model == model, "artifact classification model mismatch");
  if (has_schedule) {
    auto schedule = std::make_shared<core::CanonicalSchedule>(core::schedule_from_text(in));
    ARL_EXPECTS(core::schedule_fingerprint(*schedule) == schedule_digest,
                "artifact schedule fingerprint mismatch");
    compiled.schedule = std::move(schedule);
  }
  return compiled;
}

bool file_exists(const std::string& path) {
#if ARL_STORE_HAS_POSIX_IO
  struct ::stat info {};
  return ::stat(path.c_str(), &info) == 0;
#else
  std::error_code ec;
  return std::filesystem::exists(path, ec);
#endif
}

/// mkdir -p.  Returns false on failure; true when the directory exists.
bool make_directories(const std::string& path) {
#if ARL_STORE_HAS_POSIX_IO
  std::string prefix;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    prefix = slash == std::string::npos ? path : path.substr(0, slash);
    start = slash == std::string::npos ? path.size() + 1 : slash + 1;
    if (prefix.empty()) {
      continue;
    }
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return false;
    }
  }
  struct ::stat info {};
  return ::stat(path.c_str(), &info) == 0 && S_ISDIR(info.st_mode);
#else
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return std::filesystem::is_directory(path, ec);
#endif
}

/// How write_entry_atomically ended.
enum class WriteOutcome { Written, Exists, Failed };

/// Writes `text` to `final_path` via a private tmp sibling: write, fsync,
/// publish, fsync the directory.  `no_clobber` publishes with link(), which
/// fails atomically when an entry already exists (Exists); otherwise
/// rename() replaces it.  The tmp file is unlinked either way; the final
/// path is never left partial.
WriteOutcome write_entry_atomically(const std::string& directory, const std::string& final_path,
                                    const std::string& tmp_path, const std::string& text,
                                    bool no_clobber) {
#if ARL_STORE_HAS_POSIX_IO
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return WriteOutcome::Failed;
  }
  std::size_t written = 0;
  bool ok = true;
  while (written < text.size()) {
    const ::ssize_t n = ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ok = false;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (ok && no_clobber) {
    const bool linked = ::link(tmp_path.c_str(), final_path.c_str()) == 0;
    const bool exists = !linked && errno == EEXIST;
    ::unlink(tmp_path.c_str());
    if (!linked) {
      return exists ? WriteOutcome::Exists : WriteOutcome::Failed;
    }
  } else if (!ok || ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return WriteOutcome::Failed;
  }
  // Make the publication itself durable.
  const int dir_fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    (void)::close(dir_fd);
  }
  return WriteOutcome::Written;
#else
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.good()) {
      std::remove(tmp_path.c_str());
      return WriteOutcome::Failed;
    }
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return WriteOutcome::Failed;
  }
  (void)directory;
  (void)no_clobber;  // no portable no-clobber publish: save()'s pre-check is all there is
  return WriteOutcome::Written;
#endif
}

}  // namespace

ArtifactStoreStats ArtifactStoreStats::since(const ArtifactStoreStats& earlier) const {
  ArtifactStoreStats delta;
  delta.hits = hits - earlier.hits;
  delta.misses = misses - earlier.misses;
  delta.rejected = rejected - earlier.rejected;
  delta.saves = saves - earlier.saves;
  delta.skipped = skipped - earlier.skipped;
  delta.errors = errors - earlier.errors;
  return delta;
}

ArtifactStore::ArtifactStore(std::string directory) : directory_(std::move(directory)) {
  ARL_EXPECTS(!directory_.empty(), "artifact store needs a directory path");
  if (!make_directories(directory_)) {
    throw std::runtime_error("artifact store: cannot create directory '" + directory_ + "'");
  }
}

std::string ArtifactStore::entry_path(const config::Configuration& configuration,
                                      radio::ChannelModel model, bool fast_classifier) const {
  return directory_ + '/' + support::hex64(entry_key(configuration, model, fast_classifier)) +
         ".arl";
}

std::shared_ptr<const core::CompiledConfiguration> ArtifactStore::load(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier) {
  const obs::PhaseTimer span(obs::Phase::StoreLoad);
  const std::uint64_t key = entry_key(configuration, model, fast_classifier);
  const std::string path = directory_ + '/' + support::hex64(key) + ".arl";

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      return nullptr;
    }
    std::ostringstream sink;
    sink << in.rdbuf();
    if (!in.good() && !in.eof()) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.errors;
      ++stats_.misses;
      return nullptr;
    }
    text = sink.str();
  }

  try {
    auto compiled = std::make_shared<core::CompiledConfiguration>(
        parse_entry(text, key, configuration, model, fast_classifier));
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return compiled;
  } catch (const std::exception&) {
    // Corrupt, truncated, foreign-format or colliding entry: a miss, never
    // a wrong artifact.
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected;
    ++stats_.misses;
    return nullptr;
  }
}

void ArtifactStore::save(const config::Configuration& configuration, radio::ChannelModel model,
                         bool fast_classifier, const core::CompiledConfiguration& compiled) {
  const obs::PhaseTimer span(obs::Phase::StoreSave);
  const std::uint64_t key = entry_key(configuration, model, fast_classifier);
  const std::string path = directory_ + '/' + support::hex64(key) + ".arl";

  // An entry on disk is at least classification-complete; only a schedule
  // upgrade justifies rewriting it (and a classification-only save must
  // never downgrade a schedule-bearing entry).  The pre-check saves the
  // write; the no-clobber publish below closes the race with a concurrent
  // schedule-bearing save of the same key, in this process or another.
  const bool no_clobber = compiled.schedule == nullptr;
  if (no_clobber && file_exists(path)) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.skipped;
    return;
  }

  std::uint64_t tmp_id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tmp_id = tmp_counter_++;
  }
#if ARL_STORE_HAS_POSIX_IO
  const std::string tmp_path =
      path + ".tmp." + std::to_string(::getpid()) + "." + std::to_string(tmp_id);
#else
  const std::string tmp_path = path + ".tmp." + std::to_string(tmp_id);
#endif

  const std::string text = compose_entry(key, configuration, model, fast_classifier, compiled);
  const WriteOutcome outcome = write_entry_atomically(directory_, path, tmp_path, text, no_clobber);
  const std::lock_guard<std::mutex> lock(mutex_);
  switch (outcome) {
    case WriteOutcome::Written:
      ++stats_.saves;
      break;
    case WriteOutcome::Exists:
      ++stats_.skipped;
      break;
    case WriteOutcome::Failed:
      ++stats_.errors;
      break;
  }
}

ArtifactStoreStats ArtifactStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace arl::store
