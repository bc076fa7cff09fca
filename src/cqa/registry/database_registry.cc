#include "cqa/registry/database_registry.h"

#include <algorithm>
#include <utility>

namespace cqa {

bool DatabaseRegistry::ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Result<std::shared_ptr<const Database>> DatabaseRegistry::Attach(
    const std::string& name, std::shared_ptr<const Database> db) {
  using R = Result<std::shared_ptr<const Database>>;
  if (!ValidName(name)) {
    return R::Error(ErrorCode::kUnsupported,
                    "invalid database name '" + name +
                        "' (1-64 chars from [A-Za-z0-9_.-])");
  }
  if (db == nullptr) {
    return R::Error(ErrorCode::kInternal, "attach of a null database");
  }
  Slot slot;
  slot.db = db;
  slot.fingerprint = FingerprintDatabase(*db);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = slots_.emplace(name, std::move(slot));
    if (!inserted) {
      return R::Error(ErrorCode::kUnsupported,
                      "database '" + name + "' is already attached");
    }
    if (default_name_.empty()) default_name_ = name;
  }
  return db;
}

Result<std::shared_ptr<const Database>> DatabaseRegistry::Attach(
    const std::string& name, Database db) {
  return Attach(name, std::make_shared<const Database>(std::move(db)));
}

Result<std::shared_ptr<const Database>> DatabaseRegistry::Detach(
    const std::string& name) {
  using R = Result<std::shared_ptr<const Database>>;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    return R::Error(ErrorCode::kUnsupported,
                    "database '" + name + "' is not attached");
  }
  std::shared_ptr<const Database> db = std::move(it->second.db);
  slots_.erase(it);
  if (default_name_ == name) default_name_.clear();
  return db;
}

Result<std::shared_ptr<const Database>> DatabaseRegistry::Replace(
    const std::string& name, std::shared_ptr<const Database> db,
    const DbFingerprint& fingerprint) {
  using R = Result<std::shared_ptr<const Database>>;
  if (db == nullptr) {
    return R::Error(ErrorCode::kInternal, "replace with a null database");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    return R::Error(ErrorCode::kUnsupported,
                    "database '" + name + "' is not attached");
  }
  std::shared_ptr<const Database> previous = std::move(it->second.db);
  it->second.db = std::move(db);
  it->second.fingerprint = fingerprint;
  return previous;
}

DatabaseRegistry::Entry DatabaseRegistry::EntryFor(const std::string& name,
                                                   const Slot& slot) const {
  Entry e;
  e.name = name;
  e.db = slot.db;
  e.fingerprint = slot.fingerprint;
  e.is_default = (name == default_name_);
  e.use_count = slot.db.use_count();
  return e;
}

Result<DatabaseRegistry::Entry> DatabaseRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (name.empty()) {
    if (default_name_.empty()) {
      return Result<Entry>::Error(ErrorCode::kDetached,
                                  "no default database attached");
    }
    auto it = slots_.find(default_name_);
    return EntryFor(default_name_, it->second);
  }
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    return Result<Entry>::Error(ErrorCode::kDetached,
                                "database '" + name + "' is not attached");
  }
  return EntryFor(name, it->second);
}

std::vector<DatabaseRegistry::Entry> DatabaseRegistry::List() const {
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(slots_.size());
    for (const auto& [name, slot] : slots_) out.push_back(EntryFor(name, slot));
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

std::string DatabaseRegistry::DefaultName() const {
  std::lock_guard<std::mutex> lock(mu_);
  return default_name_;
}

size_t DatabaseRegistry::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace cqa
