// rfid-verify negative corpus: MUST be flagged by [safety-comment] in the
// --fast mode.
//
// Flush opts out of Clang Thread Safety Analysis with no justification
// comment in the lines above it. The one justification in this file
// belongs to Peek and sits further above Flush than the window the check
// allows, so it must not count for Flush. This file is analyzed, never
// compiled.
#include "util/thread_annotations.h"

namespace rfid {

class BadCounter {
 public:
  // SAFETY: reads a single word that only the owning thread writes; a torn
  // read is impossible on the supported targets.
  int Peek() const RFID_NO_THREAD_SAFETY_ANALYSIS { return counter_; }

  void Increment() RFID_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++counter_;
  }

  void Reset() RFID_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    counter_ = 0;
  }

  // Writes the counter out without taking the lock.
  void Flush() RFID_NO_THREAD_SAFETY_ANALYSIS { last_flushed_ = counter_; }

 private:
  Mutex mu_;
  int counter_ RFID_GUARDED_BY(mu_) = 0;
  int last_flushed_ = 0;
};

}  // namespace rfid
