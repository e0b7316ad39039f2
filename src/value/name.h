// Name: an interned record-type or attribute name.
//
// Every record of an instance forest names its type and each of its cells'
// attributes. Stored as std::string, those names take a large share of a
// forest's memory (a 32-byte string per record and per cell, for a handful
// of distinct names per schema). A Name is an 8-byte handle instead: each
// distinct string is interned once, in a process-wide table, and kept for
// the life of the process, so the handle's string reference never dangles.
//
//   * Equality and hashing go by pointer: two Names are equal exactly when
//     they were interned from equal strings. Ordering goes by content, so a
//     sorted sequence of Names sorts like its strings.
//   * A Name converts implicitly from std::string, std::string_view and
//     const char* (interning it: a shared-lock lookup, plus an insert the
//     first time a string is seen) and to const std::string&. Hot loops
//     should resolve their Names once, outside the loop.
//   * Comparisons with a string (std::string, std::string_view, const
//     char*) compare content and intern nothing.
//
// The name table is separate from Value's StringPool: interning a Name
// assigns no Value string id, charges nothing to the MemoryBudget and
// never passes the `string_pool.intern` failpoint. Interning is safe from
// any thread.

#ifndef DYNAMITE_VALUE_NAME_H_
#define DYNAMITE_VALUE_NAME_H_

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace dynamite {

/// An immutable handle to an interned string. See the file comment.
class Name {
 public:
  /// The empty name.
  Name() : str_(Empty()) {}
  Name(const std::string& s) : str_(Intern(s)) {}  // NOLINT(runtime/explicit)
  Name(std::string_view s) : str_(Intern(s)) {}    // NOLINT(runtime/explicit)
  Name(const char* s) : str_(Intern(s)) {}         // NOLINT(runtime/explicit)

  /// The interned string; the reference is stable for the process's life.
  const std::string& str() const { return *str_; }
  operator const std::string&() const { return *str_; }  // NOLINT(runtime/explicit)

  /// Number of distinct names interned so far (the empty name included).
  static size_t TableSize();

  friend bool operator==(Name a, Name b) { return a.str_ == b.str_; }
  friend bool operator!=(Name a, Name b) { return a.str_ != b.str_; }
  friend bool operator<(Name a, Name b) { return *a.str_ < *b.str_; }

  // Content comparisons with strings; nothing is interned.
  friend bool operator==(Name a, const std::string& b) { return *a.str_ == b; }
  friend bool operator==(const std::string& a, Name b) { return a == *b.str_; }
  friend bool operator==(Name a, std::string_view b) { return *a.str_ == b; }
  friend bool operator==(std::string_view a, Name b) { return a == *b.str_; }
  friend bool operator==(Name a, const char* b) { return *a.str_ == b; }
  friend bool operator==(const char* a, Name b) { return a == *b.str_; }
  friend bool operator!=(Name a, const std::string& b) { return *a.str_ != b; }
  friend bool operator!=(const std::string& a, Name b) { return a != *b.str_; }
  friend bool operator!=(Name a, std::string_view b) { return *a.str_ != b; }
  friend bool operator!=(std::string_view a, Name b) { return a != *b.str_; }
  friend bool operator!=(Name a, const char* b) { return *a.str_ != b; }
  friend bool operator!=(const char* a, Name b) { return a != *b.str_; }

 private:
  static const std::string* Empty();
  static const std::string* Intern(std::string_view s);

  const std::string* str_;
};

/// Writes the name's string.
std::ostream& operator<<(std::ostream& os, Name name);

}  // namespace dynamite

namespace std {
/// Hashes the handle, not the characters: equal Names share one pointer.
template <>
struct hash<dynamite::Name> {
  size_t operator()(dynamite::Name name) const noexcept {
    return hash<const void*>{}(&name.str());
  }
};
}  // namespace std

#endif  // DYNAMITE_VALUE_NAME_H_
