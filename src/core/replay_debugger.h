// Post-mortem / time-travel debugger over published messages (§6.5).
//
// "A programmer would like some way of backing up a process, or processes,
// to the point where the problem originally occurred.  Published
// communications offers this as a side effect."
//
// Entirely offline: given the recorder's stable storage and the program
// registry, reconstructs a process at its last checkpoint (or initial image)
// and single-steps it through its published message history.  Each step
// reports the message delivered and every message the program would have
// sent, without touching the live system.

#ifndef SRC_CORE_REPLAY_DEBUGGER_H_
#define SRC_CORE_REPLAY_DEBUGGER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/stable_storage.h"
#include "src/demos/program.h"

namespace publishing {

// A message the debugged program emitted during a step.
struct DebuggerSend {
  ProcessId dest;
  uint16_t channel = 0;
  uint32_t code = 0;
  size_t body_bytes = 0;
};

struct DebuggerStep {
  MessageId id;          // The message that was delivered.
  ProcessId from;
  uint16_t channel = 0;
  size_t body_bytes = 0;
  std::vector<DebuggerSend> sends;  // What the program emitted in response.
};

class ReplayDebugger {
 public:
  ReplayDebugger(const StableStorage* storage, const ProgramRegistry* registry,
                 ProcessId target);
  ~ReplayDebugger();

  ReplayDebugger(const ReplayDebugger&) = delete;
  ReplayDebugger& operator=(const ReplayDebugger&) = delete;

  // Loads the checkpoint (or instantiates the initial image) and queues the
  // published message tail.  Must be called before stepping.
  Status Initialize();

  bool AtEnd() const { return cursor_ >= replay_.size(); }
  size_t remaining() const { return replay_.size() - cursor_; }
  uint64_t steps_taken() const { return steps_; }

  // Delivers the next published message to the reconstructed program.
  // DELIVERTOKERNEL entries are skipped (reported with channel 0xFFFF).
  Result<DebuggerStep> Step();

  // Steps until the history is exhausted; returns the number of steps.
  Result<uint64_t> RunToEnd();

  // Steps until (and including) the given message id; kNotFound if the id
  // never appears.
  Result<uint64_t> RunUntilMessage(const MessageId& id);

  // The reconstructed program, for white-box state inspection.
  const UserProgram* program() const { return program_.get(); }
  UserProgram* mutable_program() { return program_.get(); }

 private:
  class OfflineApi;

  const StableStorage* storage_;
  const ProgramRegistry* registry_;
  ProcessId target_;
  std::unique_ptr<UserProgram> program_;
  std::unique_ptr<OfflineApi> api_;
  ReplayCursor replay_;
  size_t cursor_ = 0;
  uint64_t steps_ = 0;
  bool initialized_ = false;
};

}  // namespace publishing

#endif  // SRC_CORE_REPLAY_DEBUGGER_H_
