#include "value/name.h"

#include <memory>
#include <ostream>
#include <unordered_map>

#include "util/thread_annotations.h"

namespace dynamite {

namespace {

/// The process-wide name table: each distinct string is stored once, on the
/// heap, and never freed, so a Name's pointer and the map's string_view
/// keys stay valid for the life of the process. Lookups of names already
/// seen (the steady state) take the lock shared.
class NameTable {
 public:
  static NameTable& Global() {
    static NameTable* table = new NameTable();  // never destroyed: Names
    return *table;                              // outlive static destructors
  }

  const std::string* Intern(std::string_view s) {
    {
      SharedMutexLock lock(mu_);
      auto it = strings_.find(s);
      if (it != strings_.end()) return it->second.get();
    }
    SharedMutexExclusiveLock lock(mu_);
    auto it = strings_.find(s);  // another thread may have inserted it
    if (it != strings_.end()) return it->second.get();
    auto stored = std::make_unique<const std::string>(s);
    const std::string* out = stored.get();
    strings_.emplace(std::string_view(*out), std::move(stored));
    return out;
  }

  size_t size() {
    SharedMutexLock lock(mu_);
    return strings_.size();
  }

 private:
  SharedMutex mu_;
  std::unordered_map<std::string_view, std::unique_ptr<const std::string>> strings_
      DYNAMITE_GUARDED_BY(mu_);
};

}  // namespace

const std::string* Name::Empty() {
  static const std::string* const empty = Intern("");
  return empty;
}

const std::string* Name::Intern(std::string_view s) { return NameTable::Global().Intern(s); }

size_t Name::TableSize() { return NameTable::Global().size(); }

std::ostream& operator<<(std::ostream& os, Name name) { return os << name.str(); }

}  // namespace dynamite
