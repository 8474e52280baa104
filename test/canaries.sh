#!/usr/bin/env bash
# Mutation canaries: each row breaks one file of a copy of the source tree
# with a perl substitution and names the test groups that must then fail.
# A reference whose test cannot tell the broken tree from the real one has
# no teeth, so for each row, in order:
#   1. control: the groups pass on the unmutated copy;
#   2. the substitution must change the file (else the canary is stale:
#      point it at the moved code);
#   3. the mutated copy must build (a copy that does not compile fails
#      every group without testing anything);
#   4. every group must fail on the mutated copy;
#   5. the file is restored before the next row.
#
# usage: test/canaries.sh [NAME...]   (no NAME: every row)
# The copy holds the files git tracks or would track (a local run checks
# uncommitted edits too) and is made under $TMPDIR. Exit status 0 iff
# every selected row held.

set -u
src=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$src" && git ls-files -z -co --exclude-standard | xargs -0 tar cf -) |
  tar xf - -C "$work"

failures=0
selected=("$@")

run_group() {
  # a group spec is "GROUP" or "GROUP INDEX"
  # shellcheck disable=SC2086
  (cd "$work" && dune exec --root . --display quiet test/test_main.exe -- test $1 \
    >/dev/null 2>&1)
}

# canary NAME FILE GROUPS SUBSTITUTION WHAT
#   GROUPS: comma-separated group specs; WHAT: the fault the mutation plants
canary() {
  local name=$1 file=$2 groups=$3 subst=$4 what=$5 ok=1 group
  if [ ${#selected[@]} -gt 0 ] && [[ ! " ${selected[*]} " =~ " $name " ]]; then
    return
  fi
  IFS=, read -ra specs <<<"$groups"
  for group in "${specs[@]}"; do
    if ! run_group "$group"; then
      echo "$name: control failed: test $group fails on the unmutated tree"
      ok=0
    fi
  done
  cp "$work/$file" "$work/$file.orig"
  perl -0pi -e "$subst" "$work/$file"
  if cmp -s "$work/$file.orig" "$work/$file"; then
    echo "$name: pattern not found in $file: the canary is stale, point it at the moved code"
    ok=0
  elif ! (cd "$work" && dune build --root . --display quiet test/test_main.exe \
    >/dev/null 2>&1); then
    echo "$name: the mutated $file does not build: fix the substitution"
    ok=0
  else
    for group in "${specs[@]}"; do
      if run_group "$group"; then
        echo "$name: test $group missed $what"
        ok=0
      else
        echo "$name: test $group caught $what"
      fi
    done
  fi
  mv "$work/$file.orig" "$work/$file"
  if [ $ok = 1 ]; then echo "$name: ok"; else failures=$((failures + 1)); fi
}

# The executor's references (the fixed-seed digests and the naive evaluator
# in test_batch) must catch an executor that ignores LIMIT.
canary executor-oracle lib/sql/executor.ml batch \
  's/\| Some n when Array\.length rows > n -> Array\.sub rows 0 n\s*//' \
  "an executor that ignores LIMIT"

# A B-tree block is decoded once per cache residency; the memo is only
# sound because a write clears it.
canary memo-invalidation lib/cache/cache.ml cache,model \
  's/f\.memo <- None;\s*//' \
  "a decode memo that survives a write"

# The Disk Process decodes only the fields a request evaluates or ships and
# skips the others by width.
canary selective-decode lib/row/row.ml row,redrive \
  's/(e - at \+ varint_value src at 0 0)/$1 + 1/' \
  "a VARCHAR skipped one byte too far"

# Every grouping site keys groups in Dp_msg.Groups, where a key holding a
# float keys by its encoding; by value, -0. merges with 0.
canary group-identity lib/dp/dp_msg.ml groups \
  's/if Array\.exists \(function Row\.Vfloat _ -> true \| _ -> false\) row then/if false then/' \
  "floats keyed by value"

# Every subset request and every Ck_scb_open writes the subset's fields
# through Dp_msg.w_subset_fields; the dp codec test pins each subset
# request's encoded length.
canary subset-wire lib/dp/dp_msg.ml "dp 0" \
  's/let w_subset_fields w = function\n/let w_subset_fields w body =\n  Codec.w_u8 w 0;\n  match body with\n/' \
  "an extra byte in the subset fields"

# A value bound to a ? marker becomes the tree its text would parse to: a
# negative number in an expression is 0 - |v|, whose size sets the DP's
# ticks (sql: prepared = text; chaos: its seeds' pinned digest).
canary prepared-equivalence lib/sql/ast.ml sql,chaos \
  's/\| Row\.Vfloat f when Float\.sign_bit f ->/| Row.Vfloat f when false ->/' \
  "a negative float bound as a plain literal"

# A parked point request is re-dispatched whole, so the DP's
# lock-or-block step must run nothing before the grant.
canary lock-or-block lib/dp/dp.ml dp \
  's/\| Lock\.Blocked blockers -> Ok \(blocked \?last_key blockers\)\)/| Lock.Blocked blockers ->\n          ignore (k ());\n          Ok (blocked ?last_key blockers))/' \
  "a denied point request that still applies its operation"

# A key addresses a record in every file structure: the conformance
# matrix must notice a relative file whose records cannot be found.
canary record-kinds lib/dp/dp.ml conformance \
  's/Ok \(Relfile\.read r ~slot\)/Ok (ignore (r, slot); None)/' \
  "a relative lookup that answers not-found"

# Every multi-partition request abandons its chains through the fan's one
# path, which closes each subset a Disk Process still holds (redrive: the
# fan-out failure tests count sibling CLOSE^SCBs and watch every SCB).
canary fan-abandon lib/fs/fs.ml redrive \
  's/if scb >= 0 then begin/if false then begin/' \
  "a fan that never closes an abandoned subset"

# Abort backs a transaction out from its own records, newest first: a
# field updated twice and appends of different lengths come back only in
# that order.
canary backout-order lib/tmf/tmf.ml backout \
  's/\(Trail\.read_at t\.trail pos\)\)(\s*)e\.records;/(Trail.read_at t.trail pos))$1(List.rev e.records);/' \
  "a backout that walks the records oldest first"

# Backout applies each record's inverse: an inverse field update that keeps
# each field's values sets the after-values again, so a field-compressed
# update does not come back.
canary backout-invert lib/audit/audit_record.ml backout \
  's/\(n, after, before\)\) fields/(n, before, after)) fields/' \
  "an inverse that does not swap a field's values"

# A commit with no other transaction running flushes the trail at once
# (audit 10 times a lone commit against a pinned 50 ms timer; audit 11
# closes a group of two with the second commit).
canary lone-commit lib/tmf/tmf.ml "audit 10,audit 11" \
  's/~can_grow:\(t\.running > 0\)/~can_grow:true/' \
  "a commit that waits out the timer with no transaction left to join it"

# A parked transaction cannot join a group: dp 21 parks the one other
# running transaction and expects the flush at the park, not the timer.
canary stalled-group lib/tmf/tmf.ml "dp 21" \
  's/(let (?:un)?park t ~tx =\n)/$1  if false then\n/g' \
  "a running count that ignores parks"

# The transfer terminals commit nowait, so the other terminals run on
# while a commit waits for its group (workload 8 counts timer flushes).
canary inline-commit lib/workload/debitcredit.ml "workload 8" \
  's/\| P_append, Dp_msg\.Rp_slot _ -> commit_nowait t/| P_append, Dp_msg.Rp_slot _ -> (\n        ignore commit_nowait;\n        match Tmf.commit tmf ~tx:t.t_tx with\n        | Ok () -> committed_terminal t\n        | Error e -> settle t e)/' \
  "a driver that blocks in the blocking commit"

# A timer event acts only for its own arm: a flush leaves the disarmed
# timer's event in the heap (audit 9 arms a second timer before the first
# one's due time).
canary stale-timer lib/audit/trail.ml "audit 9" \
  's/ && Float\.equal t\.timer_due due//' \
  "a stale timer event that flushes a later group early"

if [ $failures -gt 0 ]; then
  echo "$failures canary row(s) failed"
  exit 1
fi
echo "every canary row held"
