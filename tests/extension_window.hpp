// Deterministic checks of the snapshot-extension window in load().
//
// An LSA load that meets an orec newer than its snapshot reads the value,
// then extends the snapshot.  A commit that lands on the same orec between
// those two steps must not leave the pre-commit value inside the extended
// snapshot.  Each check below lands such a commit from a second descriptor
// through the backend's pre-extend hook, on the loading thread itself, so
// no timing is involved.  Shared by the tiny/swiss suite (test_stm_basic)
// and the durable suite (test_durable).
#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>

#include "stm/word.hpp"

namespace shrinktm::testing_support {

/// Run the given stores on `tx` as one committed transaction.
template <typename Tx>
void commit_stores(Tx& tx,
                   std::initializer_list<std::pair<stm::Word*, stm::Word>> stores) {
  tx.start();
  for (const auto& [addr, value] : stores) tx.store(addr, value);
  tx.commit();
}

/// A read-only transaction reads a pair that is always written together
/// (`*a == *b`).  Its first load meets an orec newer than its snapshot, and a
/// new pair commits inside the extension window.  The reader must return
/// one pair, never the old `*a` with the new `*b`.
template <typename Backend>
void expect_no_torn_pair_across_extension(Backend& backend, stm::Word* a,
                                          stm::Word* b) {
  auto& reader = backend.tx(0);
  auto& writer = backend.tx(1);
  reader.start();
  commit_stores(writer, {{a, 1}, {b, 1}});  // a is now newer than the snapshot
  int fired = 0;
  reader.set_pre_extend_hook([&] {
    if (fired++ == 0) commit_stores(writer, {{a, 2}, {b, 2}});
  });
  const stm::Word x = reader.load(a);
  const stm::Word y = reader.load(b);
  reader.commit();
  reader.set_pre_extend_hook(nullptr);
  EXPECT_EQ(fired, 1) << "the load never reached the extension window";
  EXPECT_EQ(x, y) << "torn pair: a from one commit, b from a later one";
  EXPECT_EQ(x, 2u);
}

/// A writer increments a counter whose orec is newer than its snapshot; a
/// concurrent increment commits inside the extension window.  The writer's
/// commit has no other writer between its snapshot and its own tick, so it
/// takes the `wv == rv + 1` shortcut and skips validation: the load itself
/// must have returned the newest value, or an increment is lost.
template <typename Backend>
void expect_no_lost_update_across_extension(Backend& backend, stm::Word* c) {
  auto& inc = backend.tx(0);
  auto& other = backend.tx(1);
  inc.start();
  commit_stores(other, {{c, 1}});  // c is now newer than the snapshot
  int fired = 0;
  inc.set_pre_extend_hook([&] {
    if (fired++ == 0) commit_stores(other, {{c, 2}});
  });
  const stm::Word seen = inc.load(c);
  inc.store(c, seen + 1);
  inc.commit();
  inc.set_pre_extend_hook(nullptr);
  EXPECT_EQ(fired, 1) << "the load never reached the extension window";
  EXPECT_EQ(*c, 3u) << "an increment committed inside the window was lost";
}

}  // namespace shrinktm::testing_support
