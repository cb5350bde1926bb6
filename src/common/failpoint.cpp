#include "common/failpoint.hpp"

#if defined(DAMOCLES_FAILPOINTS_ENABLED)

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace damocles::common {

namespace {

struct Entry {
  FailpointAction action = FailpointAction::kError;
  int error_number = 0;
  uint64_t param = 0;
  double prob = 1.0;
  uint64_t skip = 0;
  // Remaining hits before the failpoint disarms; negative = unlimited.
  int64_t count = -1;
  Rng rng{0x9e3779b97f4a7c15ULL};
  uint64_t evaluations = 0;
  uint64_t hits = 0;
  std::string config;
};

int ParseErrnoName(const std::string& text) {
  if (text == "ENOSPC") return ENOSPC;
  if (text == "EIO") return EIO;
  if (text == "EINTR") return EINTR;
  if (text == "EAGAIN") return EAGAIN;
  if (text == "EDQUOT") return EDQUOT;
  int value = 0;
  if (ParseWhole(text, value) && value > 0) return value;
  throw Error("failpoint: unknown errno '" + text + "'");
}

uint64_t ParseU64(const std::string& text, const std::string& what) {
  uint64_t value = 0;
  if (ParseWhole(text, value)) return value;
  throw Error("failpoint: bad " + what + " '" + text + "'");
}

Entry ParseConfig(const std::string& config) {
  Entry entry;
  entry.config = config;
  size_t pos = 0;
  bool first = true;
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
  while (pos <= config.size()) {
    const size_t comma = config.find(',', pos);
    const std::string term = config.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? config.size() + 1 : comma + 1;
    if (term.empty()) {
      if (first) throw Error("failpoint: empty action in '" + config + "'");
      continue;
    }
    if (first) {
      first = false;
      const size_t colon = term.find(':');
      const std::string action = term.substr(0, colon);
      const std::string arg =
          colon == std::string::npos ? "" : term.substr(colon + 1);
      if (action == "error") {
        entry.action = FailpointAction::kError;
      } else if (action == "errno") {
        entry.action = FailpointAction::kErrno;
        entry.error_number = ParseErrnoName(arg);
      } else if (action == "short") {
        entry.action = FailpointAction::kShortWrite;
        entry.param = ParseU64(arg, "short-write length");
      } else if (action == "delay") {
        entry.action = FailpointAction::kDelay;
        entry.param = ParseU64(arg, "delay");
      } else if (action == "abort") {
        entry.action = FailpointAction::kAbort;
      } else {
        throw Error("failpoint: unknown action '" + action + "'");
      }
      continue;
    }
    const size_t eq = term.find('=');
    if (eq == std::string::npos) {
      throw Error("failpoint: expected key=value, got '" + term + "'");
    }
    const std::string key = term.substr(0, eq);
    const std::string value = term.substr(eq + 1);
    if (key == "prob") {
      try {
        size_t used = 0;
        entry.prob = std::stod(value, &used);
        if (used != value.size() || entry.prob < 0.0 || entry.prob > 1.0) {
          throw Error("");
        }
      } catch (const std::exception&) {
        throw Error("failpoint: bad prob '" + value + "'");
      }
    } else if (key == "skip") {
      entry.skip = ParseU64(value, "skip");
    } else if (key == "count") {
      entry.count = static_cast<int64_t>(ParseU64(value, "count"));
    } else if (key == "seed") {
      seed = ParseU64(value, "seed");
    } else {
      throw Error("failpoint: unknown key '" + key + "'");
    }
  }
  entry.rng = Rng(seed);
  return entry;
}

}  // namespace

struct Failpoints::Impl {
  mutable std::mutex mutex;
  std::map<std::string, Entry> entries;
  std::atomic<int> armed{0};
};

Failpoints& Failpoints::Instance() {
  static Failpoints instance;
  return instance;
}

Failpoints::Failpoints() : impl_(new Impl) {
  // Env activation: DAMOCLES_FAILPOINTS_CONFIG="name=config;..."
  // Malformed entries are reported and skipped rather than thrown —
  // this runs lazily from arbitrary call sites.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("DAMOCLES_FAILPOINTS_CONFIG");
  if (env == nullptr) return;
  const std::string text(env);
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t semi = text.find(';', pos);
    const std::string item = text.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? text.size() : semi + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "failpoint: ignoring malformed env entry '%s'\n",
                   item.c_str());
      continue;
    }
    try {
      Configure(item.substr(0, eq), item.substr(eq + 1));
    } catch (const Error& error) {
      std::fprintf(stderr, "failpoint: ignoring env entry '%s': %s\n",
                   item.c_str(), error.what());
    }
  }
}

void Failpoints::Configure(const std::string& name,
                           const std::string& config) {
  if (name.empty()) throw Error("failpoint: empty name");
  Entry entry = ParseConfig(config);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->entries[name] = std::move(entry);
  impl_->armed.store(static_cast<int>(impl_->entries.size()),
                     std::memory_order_release);
}

void Failpoints::Clear(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->entries.erase(name);
  impl_->armed.store(static_cast<int>(impl_->entries.size()),
                     std::memory_order_release);
}

void Failpoints::ClearAll() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->entries.clear();
  impl_->armed.store(0, std::memory_order_release);
}

std::vector<FailpointStatus> Failpoints::List() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<FailpointStatus> out;
  out.reserve(impl_->entries.size());
  for (const auto& [name, entry] : impl_->entries) {
    FailpointStatus status;
    status.name = name;
    status.config = entry.config;
    status.evaluations = entry.evaluations;
    status.hits = entry.hits;
    out.push_back(std::move(status));
  }
  // Name order is part of the contract (the wire "failpoint list"
  // output must be deterministic for scripted clients), not an
  // accident of the storage container.
  std::sort(out.begin(), out.end(),
            [](const FailpointStatus& a, const FailpointStatus& b) {
              return a.name < b.name;
            });
  return out;
}

bool Failpoints::AnyActive() const {
  return impl_->armed.load(std::memory_order_acquire) > 0;
}

bool Failpoints::Evaluate(const char* name, FailpointHit* out_hit) {
  FailpointAction action;
  int error_number;
  uint64_t param;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->entries.find(name);
    if (it == impl_->entries.end()) return false;
    Entry& entry = it->second;
    ++entry.evaluations;
    if (entry.skip > 0) {
      --entry.skip;
      return false;
    }
    if (entry.count == 0) return false;
    if (entry.prob < 1.0 && !entry.rng.Chance(entry.prob)) return false;
    ++entry.hits;
    if (entry.count > 0) --entry.count;
    action = entry.action;
    error_number = entry.error_number;
    param = entry.param;
  }
  switch (action) {
    case FailpointAction::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(param));
      return false;
    case FailpointAction::kAbort:
      std::fprintf(stderr, "failpoint: aborting at '%s'\n", name);
      std::abort();
    default:
      break;
  }
  if (out_hit != nullptr) {
    out_hit->action = action;
    out_hit->error_number = error_number;
    out_hit->param = param;
  }
  return true;
}

}  // namespace damocles::common

#else  // !DAMOCLES_FAILPOINTS_ENABLED

// With failpoints compiled out the macro never touches the registry,
// but the class still links so tooling code can reference it.
#include "common/error.hpp"

namespace damocles::common {

struct Failpoints::Impl {};

Failpoints& Failpoints::Instance() {
  static Failpoints instance;
  return instance;
}

Failpoints::Failpoints() : impl_(nullptr) {}

void Failpoints::Configure(const std::string&, const std::string&) {
  throw Error("failpoint: compiled out in this build");
}

void Failpoints::Clear(const std::string&) {}

void Failpoints::ClearAll() {}

std::vector<FailpointStatus> Failpoints::List() const { return {}; }

bool Failpoints::AnyActive() const { return false; }

bool Failpoints::Evaluate(const char*, FailpointHit*) { return false; }

}  // namespace damocles::common

#endif  // DAMOCLES_FAILPOINTS_ENABLED
