#!/bin/sh
# End-to-end test of the bmeh_cli tool.  Usage: cli_test.sh <path-to-cli>
set -e

CLI="$1"
if [ -z "$CLI" ] || [ ! -x "$CLI" ]; then
  echo "usage: cli_test.sh <bmeh_cli binary>" >&2
  exit 1
fi

# Every path the script makes lives in one temporary directory, which the
# one EXIT trap removes, after stopping a serve process still running.
WORK="$(mktemp -d /tmp/bmeh_cli_test.XXXXXX)"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2> /dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

DB="$WORK/db"
STORE="$WORK/store"
BATCHED="$WORK/batched"
REPAIRED="$WORK/repaired"

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# a plain file that is not a store, for the refusal checks below
echo "not a bmeh store" > "$DB"

# stats and dot refuse a non-store file, and a missing path, which they
# must not create
for VERB in stats dot; do
  if "$CLI" $VERB --db "$DB" > /dev/null 2>&1; then
    fail "$VERB on a non-store file should fail"
  fi
  if "$CLI" $VERB --db "$DB.missing" > /dev/null 2>&1; then
    fail "$VERB on a missing path should fail"
  fi
  [ ! -e "$DB.missing" ] || fail "$VERB created a store at a missing path"
done

# storeinfo rejects a non-store file instead of misreading it
if "$CLI" storeinfo --db "$DB" > /dev/null 2>&1; then
  fail "storeinfo on a non-store file should fail"
fi

# unknown command errors out
if "$CLI" frobnicate --db "$DB" > /dev/null 2>&1; then
  fail "unknown command should fail"
fi

# ---- corruption defense: storebuild / storeinfo / scrub / fsck ----

# storebuild with a live WAL leaves the file as a crash would
OUT=$("$CLI" storebuild --db "$STORE" --n 500 --b 8 --page-size 512 \
      --leave-wal 40 --seed 11)
echo "$OUT" | grep -q "(40 in the WAL)" || fail "storebuild did not leave a WAL"
BUILT=$(echo "$OUT" | sed -n 's/.*: \([0-9]*\) records.*/\1/p')

# --batch loads through the WriteBatch path and must produce the
# same record population as the single-record path (same seed), including
# the --leave-wal crash fixture semantics.
OUT=$("$CLI" storebuild --db "$BATCHED" --n 500 --b 8 --page-size 512 \
      --leave-wal 40 --seed 11 --batch 64)
echo "$OUT" | grep -q "(40 in the WAL)" || fail "batched storebuild WAL tail"
BATCH_BUILT=$(echo "$OUT" | sed -n 's/.*: \([0-9]*\) records.*/\1/p')
"$CLI" scrub --db "$BATCHED" > /dev/null || fail "batched store must scrub clean"
[ "$BATCH_BUILT" = "$BUILT" ] \
  || fail "batched build population ($BATCH_BUILT) != single-record ($BUILT)"

# storeinfo recovers the crashed store's state without mutating it
cp "$STORE" "$STORE.before"
OUT=$("$CLI" storeinfo --db "$STORE") || fail "storeinfo on a crashed store"
echo "$OUT" | grep -q "format v2" || fail "storeinfo format version"
echo "$OUT" | grep -q "write-ahead log:  40 records" || fail "storeinfo WAL count"
echo "$OUT" | grep -q "records:          $BUILT " || fail "storeinfo record count"
cmp -s "$STORE" "$STORE.before" || fail "storeinfo wrote the store it read"

# a freshly built store scrubs clean
OUT=$("$CLI" scrub --db "$STORE") || fail "scrub of a clean store exited non-zero"
echo "$OUT" | grep -q ": clean" || fail "scrub did not report clean"
cmp -s "$STORE" "$STORE.before" || fail "scrub wrote the store it read"

# fsck --repair of a CLEAN store is an exact copy
OUT=$("$CLI" fsck --db "$STORE" --repair "$REPAIRED" --b 8 --page-size 512) \
  || fail "fsck --repair of a clean store exited non-zero"
echo "$OUT" | grep -q "salvaged $BUILT records" || fail "clean salvage lost records"
"$CLI" scrub --db "$REPAIRED" > /dev/null || fail "repaired store must scrub clean"
rm -f "$REPAIRED"

# flip one byte in a data page: scrub and fsck must detect it and exit 1
"$CLI" corrupt --db "$STORE" --page 3 --byte 100 > /dev/null \
  || fail "corrupt verb failed"
if OUT=$("$CLI" scrub --db "$STORE"); then
  fail "scrub of a corrupted store must exit non-zero"
fi
echo "$OUT" | grep -q "CORRUPT" || fail "scrub did not flag the corruption"
echo "$OUT" | grep -q "corrupt pages:    1: 3" || fail "scrub missed page 3"
if "$CLI" fsck --db "$STORE" > /dev/null; then
  fail "fsck of a corrupted store must exit non-zero"
fi

# fsck --repair still salvages into a clean store
OUT=$("$CLI" fsck --db "$STORE" --repair "$REPAIRED" --b 8 --page-size 512) \
  || fail "fsck --repair exited non-zero"
echo "$OUT" | grep -q "salvaged [0-9]* records" || fail "repair salvaged nothing"
"$CLI" scrub --db "$REPAIRED" > /dev/null || fail "salvaged store must scrub clean"
OUT=$("$CLI" storeinfo --db "$REPAIRED")
echo "$OUT" | grep -q "write-ahead log:  empty" || fail "salvaged store keeps no WAL"

# ---- observability: stats and trace verbs on a BmehStore file ----

TRACE="$WORK/trace.json"

# store-mode stats: Prometheus-shaped text from the metrics registry,
# probe workload charging the op counters and latency histograms
OUT=$("$CLI" stats --db "$REPAIRED" --ops 25) || fail "store stats exited non-zero"
echo "$OUT" | grep -q "# TYPE bmeh_store_puts_total counter" \
  || fail "stats missing counter TYPE line"
echo "$OUT" | grep -q "bmeh_store_puts_total 25" || fail "stats puts count"
echo "$OUT" | grep -q "bmeh_store_checkpoints_total" || fail "stats checkpoint counter"
echo "$OUT" | grep -q "bmeh_pagestore_reads_total" || fail "stats pagestore counters"
echo "$OUT" | grep -q "bmeh_insert_latency_ns_count" || fail "stats insert histogram"
echo "$OUT" | grep -q "bmeh_wal_appends_total" || fail "stats WAL counter"
echo "$OUT" | grep -q "bmeh_tree_records" || fail "stats tree gauge"

# the probe workload nets zero records and must leave the store intact
BEFORE=$("$CLI" storeinfo --db "$REPAIRED" | sed -n 's/^records: *\([0-9]*\).*/\1/p')
"$CLI" stats --db "$REPAIRED" --ops 10 > /dev/null
AFTER=$("$CLI" storeinfo --db "$REPAIRED" | sed -n 's/^records: *\([0-9]*\).*/\1/p')
[ "$BEFORE" = "$AFTER" ] || fail "stats probe changed the record count"

# machine-readable variant
OUT=$("$CLI" stats --db "$REPAIRED" --json) || fail "stats --json exited non-zero"
echo "$OUT" | grep -q '"counters"' || fail "json stats counters object"
echo "$OUT" | grep -q '"histograms"' || fail "json stats histograms object"
echo "$OUT" | grep -q '"pagestore_reads_total"' || fail "json stats pagestore"

# trace: probe ops recorded as Chrome trace events
OUT=$("$CLI" trace --db "$REPAIRED" --out "$TRACE" --ops 20) \
  || fail "trace exited non-zero"
echo "$OUT" | grep -q "wrote [0-9]* spans" || fail "trace span summary"
[ -s "$TRACE" ] || fail "trace wrote no file"
grep -q '"traceEvents"' "$TRACE" || fail "trace file is not Chrome JSON"
grep -q '"name": "put"' "$TRACE" || fail "trace has no put span"
grep -q '"cat": "wal"' "$TRACE" || fail "trace has no WAL span"

# trace on a non-store file must fail cleanly
if "$CLI" trace --db "$DB" --out "$TRACE" > /dev/null 2>&1; then
  fail "trace on a non-store file should fail"
fi

# dot renders a store file's directory
OUT=$("$CLI" dot --db "$REPAIRED") || fail "dot on a store file exited non-zero"
echo "$OUT" | grep -q "digraph" || fail "dot output"

# ---- resource exhaustion: --max-pages quota ----

QUOTA="$WORK/quota"

# a build into a tiny quota stops gracefully with exit code 3
set +e
OUT=$("$CLI" storebuild --db "$QUOTA" --n 2000 --b 8 --page-size 512 \
      --max-pages 40 --seed 11)
RC=$?
set -e
[ "$RC" -eq 3 ] || fail "quota-bound storebuild should exit 3, got $RC"
echo "$OUT" | grep -q "page quota exhausted" || fail "no quota message"
echo "$OUT" | grep -q "quota 40" || fail "resource line missing the quota"

# the interrupted file is intact: it scrubs clean and storeinfo reads it
"$CLI" scrub --db "$QUOTA" > /dev/null \
  || fail "quota-interrupted store must scrub clean"
OUT=$("$CLI" storeinfo --db "$QUOTA") || fail "storeinfo after exhaustion"
KEPT=$(echo "$OUT" | sed -n 's/^records: *\([0-9]*\).*/\1/p')
[ -n "$KEPT" ] && [ "$KEPT" -gt 0 ] || fail "exhausted store kept no records"
echo "$OUT" | grep -q "page quota:       unlimited" \
  || fail "storeinfo quota line missing"

# raising the quota resumes the same file to completion (exit 0)
OUT=$("$CLI" storebuild --db "$QUOTA" --n 2000 --b 8 --page-size 512 \
      --max-pages 4000 --seed 11) \
  || fail "storebuild after raising the quota failed"
"$CLI" scrub --db "$QUOTA" > /dev/null || fail "resumed store must scrub clean"
OUT=$("$CLI" storeinfo --db "$QUOTA")
DONE=$(echo "$OUT" | sed -n 's/^records: *\([0-9]*\).*/\1/p')
[ "$DONE" -gt "$KEPT" ] || fail "raised quota did not grow the store"

# ---- sharded store: storebuild --shards / storeinfo / stats / scrub / fsck ----

SHARDDIR="$WORK/shards"
SHARDFIX="$WORK/shardfix"

# storebuild into a 4-shard directory
OUT=$("$CLI" storebuild --db "$SHARDDIR" --shards 4 --n 400 --b 8 \
      --page-size 512 --seed 11 --batch 32) \
  || fail "sharded storebuild exited non-zero"
echo "$OUT" | grep -q "built sharded store" || fail "sharded build summary"
echo "$OUT" | grep -q "across 4 shards" || fail "sharded build shard count"
SHARD_BUILT=$(echo "$OUT" | sed -n 's/.*: \([0-9]*\) records.*/\1/p')
[ -n "$SHARD_BUILT" ] && [ "$SHARD_BUILT" -gt 0 ] || fail "sharded build count"
[ -f "$SHARDDIR/MANIFEST" ] || fail "sharded build wrote no manifest"
[ -f "$SHARDDIR/shard-0003.bmeh" ] || fail "sharded build wrote no shard files"

# storeinfo detects the directory and aggregates across shards
OUT=$("$CLI" storeinfo --db "$SHARDDIR") || fail "sharded storeinfo"
echo "$OUT" | grep -q "sharded store:    4 shards (2 routing bits)" \
  || fail "sharded storeinfo header"
echo "$OUT" | grep -q "records:          $SHARD_BUILT " \
  || fail "sharded storeinfo record count"
echo "$OUT" | grep -q "shard 3" || fail "sharded storeinfo per-shard lines"

# stats: one registry across shards — aggregate gauges plus shard labels
OUT=$("$CLI" stats --db "$SHARDDIR" --ops 25 --page-size 512) \
  || fail "sharded stats exited non-zero"
echo "$OUT" | grep -q "bmeh_store_puts_total 25" || fail "sharded stats puts count"
echo "$OUT" | grep -q "bmeh_tree_records $SHARD_BUILT" \
  || fail "sharded stats aggregate record gauge"
echo "$OUT" | grep -q "bmeh_store_shards 4" || fail "sharded stats shard gauge"
echo "$OUT" | grep -q "bmeh_shard0_tree_records" || fail "sharded stats shard label"

# trace and dot open a sharded directory too: the trace records the
# probe's puts, and dot prints one digraph per shard
"$CLI" trace --db "$SHARDDIR" --out "$TRACE" --ops 20 > /dev/null \
  || fail "sharded trace exited non-zero"
grep -q '"name": "put"' "$TRACE" || fail "sharded trace has no put span"
OUT=$("$CLI" dot --db "$SHARDDIR") || fail "sharded dot exited non-zero"
[ "$(echo "$OUT" | grep -c "digraph")" -eq 4 ] \
  || fail "sharded dot should print one digraph per shard"

# stats, trace and dot refuse a directory that holds no manifest, and
# create nothing in it
NOSTORE="$WORK/nostore"
mkdir "$NOSTORE"
for VERB in stats trace dot; do
  if "$CLI" $VERB --db "$NOSTORE" --out "$TRACE" > /dev/null 2>&1; then
    fail "$VERB on a directory without a manifest should fail"
  fi
  [ -z "$(ls -A "$NOSTORE")" ] || fail "$VERB wrote into a plain directory"
done
rmdir "$NOSTORE"

# every shard scrubs clean; the combined verdict names the shard count
OUT=$("$CLI" scrub --db "$SHARDDIR") || fail "sharded scrub exited non-zero"
echo "$OUT" | grep -q "$SHARDDIR: clean (4 shards)" || fail "sharded scrub verdict"

# corrupt ONE shard: scrub flags the directory, siblings stay clean
"$CLI" corrupt --db "$SHARDDIR/shard-0001.bmeh" --page 2 --byte 60 > /dev/null \
  || fail "corrupt of a shard file failed"
set +e
OUT=$("$CLI" scrub --db "$SHARDDIR")
RC=$?
set -e
[ "$RC" -eq 1 ] || fail "scrub of a corrupt shard should exit 1, got $RC"
echo "$OUT" | grep -q "shard-0001.bmeh: CORRUPT" || fail "scrub missed the bad shard"
echo "$OUT" | grep -q "shard-0000.bmeh: clean" || fail "scrub flagged a clean sibling"

# fsck --repair salvages shard by shard into a fresh sharded directory
OUT=$("$CLI" fsck --db "$SHARDDIR" --repair "$SHARDFIX" --b 8) \
  || fail "sharded fsck --repair exited non-zero"
echo "$OUT" | grep -q "salvaged [0-9]* records into $SHARDFIX across 4 shards" \
  || fail "sharded repair summary"
"$CLI" scrub --db "$SHARDFIX" > /dev/null || fail "repaired shards must scrub clean"
OUT=$("$CLI" storeinfo --db "$SHARDFIX")
FIXED=$(echo "$OUT" | sed -n 's/^records: *\([0-9]*\).*/\1/p')
[ -n "$FIXED" ] && [ "$FIXED" -gt 0 ] || fail "sharded repair kept no records"

# ---- per-shard failure domains: degraded storeinfo + in-place fsck --shard ----

DEGDIR="$WORK/degraded"

"$CLI" storebuild --db "$DEGDIR" --shards 4 --n 400 --b 8 \
      --page-size 512 --seed 11 > /dev/null \
  || fail "degraded-scenario storebuild exited non-zero"
OUT=$("$CLI" storeinfo --db "$DEGDIR") \
  || fail "storeinfo of a healthy sharded store should exit 0"
echo "$OUT" | grep -q "health:           healthy" || fail "missing healthy line"

# destroy ONE shard's superblock (page 1 is always the superblock)
"$CLI" corrupt --db "$DEGDIR/shard-0002.bmeh" --page 1 --byte 100 > /dev/null \
  || fail "superblock corrupt verb failed"

# storeinfo still answers from the surviving shards, names the down one,
# and exits 2 so scripts can branch on degradation without parsing
set +e
OUT=$("$CLI" storeinfo --db "$DEGDIR")
RC=$?
set -e
[ "$RC" -eq 2 ] || fail "degraded storeinfo should exit 2, got $RC"
echo "$OUT" | grep -q "DEGRADED (1 of 4 shards down)" || fail "no DEGRADED verdict"
echo "$OUT" | grep "shard 2" | grep -q "DOWN" || fail "down shard not named"
echo "$OUT" | grep "shard 0" | grep -q "records" || fail "healthy sibling not listed"

# fsck scoped to the bad shard: diagnosis exits 1, a healthy sibling exits 0
set +e
OUT=$("$CLI" fsck --db "$DEGDIR" --shard 2)
RC=$?
set -e
[ "$RC" -eq 1 ] || fail "fsck of the degraded shard should exit 1, got $RC"
echo "$OUT" | grep -q "shard 2: DEGRADED" || fail "fsck missed the degraded shard"
OUT=$("$CLI" fsck --db "$DEGDIR" --shard 0) \
  || fail "fsck of a healthy shard should exit 0"
echo "$OUT" | grep -q "shard 0: healthy" || fail "healthy shard verdict"

# in-place repair heals only that shard (siblings untouched), exits 2
set +e
OUT=$("$CLI" fsck --db "$DEGDIR" --shard 2 --repair --b 8)
RC=$?
set -e
[ "$RC" -eq 2 ] || fail "fsck --shard --repair should exit 2, got $RC"
echo "$OUT" | grep -q "shard 2: repaired" || fail "repair verdict missing"

# full service restored: healthy storeinfo, clean scrub, records survived
OUT=$("$CLI" storeinfo --db "$DEGDIR") \
  || fail "storeinfo after shard repair should exit 0"
echo "$OUT" | grep -q "health:           healthy" || fail "store still degraded"
HEALED=$(echo "$OUT" | sed -n 's/^records: *\([0-9]*\).*/\1/p')
[ -n "$HEALED" ] && [ "$HEALED" -gt 0 ] || fail "repaired shard kept no records"
"$CLI" scrub --db "$DEGDIR" > /dev/null || fail "repaired store must scrub clean"

# ---- backup / restore: full sets, point-in-time, refusal paths ----

BDB="$WORK/bdb"
BSET="$WORK/bset"
BREST="$WORK/brest"
BPITR="$WORK/bpitr"
SHSET="$WORK/shset"
SHREST="$WORK/shrest"

# a crash fixture: checkpointed records plus a 40-record WAL tail
"$CLI" storebuild --db "$BDB" --n 500 --b 8 --page-size 512 \
      --leave-wal 40 --seed 11 > /dev/null || fail "backup-fixture storebuild"
BSRC=$("$CLI" storeinfo --db "$BDB" | sed -n 's/^records: *\([0-9]*\).*/\1/p')

# full backup: sealed set, summary names the covered LSN span
OUT=$("$CLI" backup --db "$BDB" --out "$BSET") || fail "backup exited non-zero"
echo "$OUT" | grep -q "full set, LSNs \[" || fail "backup summary"
[ -f "$BSET/BACKUPSET" ] || fail "backup wrote no sealed manifest"
WM=$(echo "$OUT" | sed -n 's/.*LSNs \[[0-9]*, \([0-9]*\)\].*/\1/p')
[ -n "$WM" ] || fail "backup summary has no watermark"

# the backup must not mutate the source: the crash fixture's WAL survives
OUT=$("$CLI" storeinfo --db "$BDB")
echo "$OUT" | grep -q "write-ahead log:  40 records" \
  || fail "backup checkpointed the source store"

# restore reproduces the store exactly: same record count, WAL replayed
OUT=$("$CLI" restore --set "$BSET" --db "$BREST") || fail "restore exited non-zero"
echo "$OUT" | grep -q "replayed 40 records to LSN $WM" || fail "restore summary"
BGOT=$("$CLI" storeinfo --db "$BREST" | sed -n 's/^records: *\([0-9]*\).*/\1/p')
[ "$BGOT" = "$BSRC" ] || fail "restored records ($BGOT) != source ($BSRC)"

# storeinfo --json on the restored store carries the LSN watermark
OUT=$("$CLI" storeinfo --db "$BREST" --json) || fail "storeinfo --json"
echo "$OUT" | grep -q '"kind":"store"' || fail "json storeinfo kind"
echo "$OUT" | grep -q "\"durable_lsn\":$WM" || fail "json storeinfo durable_lsn"

# point-in-time restore stops exactly at --to-lsn
TARGET=$((WM - 20))
OUT=$("$CLI" restore --set "$BSET" --db "$BPITR" --to-lsn "$TARGET") \
  || fail "PITR restore exited non-zero"
echo "$OUT" | grep -q "to LSN $TARGET" || fail "PITR did not stop at the target"
OUT=$("$CLI" storeinfo --db "$BPITR" --json)
echo "$OUT" | grep -q "\"durable_lsn\":$TARGET" || fail "PITR durable_lsn"

# a target beyond the watermark is refused with nothing written
if "$CLI" restore --set "$BSET" --db "$BPITR.bad" --to-lsn $((WM + 5)) \
    > /dev/null 2>&1; then
  fail "restore past the watermark should fail"
fi
[ ! -e "$BPITR.bad" ] || fail "refused restore left a destination file"

# an existing destination is refused; a sealed set is never overwritten
if "$CLI" restore --set "$BSET" --db "$BREST" > /dev/null 2>&1; then
  fail "restore over an existing store should fail"
fi
if "$CLI" backup --db "$BDB" --out "$BSET" > /dev/null 2>&1; then
  fail "backup over a sealed set should fail"
fi
if "$CLI" backup --db "$BDB" --out "$BSET.inc" --incremental > /dev/null 2>&1; then
  fail "--incremental without --base should fail"
fi

# a torn manifest (backup killed mid-seal) is refused with nothing written
MANI="$BSET/BACKUPSET"
SIZE=$(wc -c < "$MANI")
head -c $((SIZE - 3)) "$MANI" > "$MANI.torn" && mv "$MANI.torn" "$MANI"
if "$CLI" restore --set "$BSET" --db "$BREST.torn" > /dev/null 2>&1; then
  fail "restore of a torn set should fail"
fi
[ ! -e "$BREST.torn" ] || fail "refused torn restore left a destination file"

# a set whose BACKUPSET names a key width past 32 under a valid seal is
# refused as corrupt (exit 1), with nothing written.  The seal line is
# "crc %08x" over the CRC-32 of the body, the CRC gzip's trailer carries.
BWIDE="$WORK/bwide"
"$CLI" backup --db "$BDB" --out "$BWIDE" > /dev/null \
  || fail "backup for the key-width check"
seal() {
  echo "crc $(gzip -c | tail -c 8 | od -An -tx4 -N4 | tr -d ' ')"
}
[ "$(sed '$d' "$BWIDE/BACKUPSET" | seal)" = "$(tail -n 1 "$BWIDE/BACKUPSET")" ] \
  || fail "the gzip trailer did not reproduce the manifest seal"
sed '$d' "$BWIDE/BACKUPSET" | sed 's/^widths .*/widths 40 3/' > "$BWIDE/body"
SEAL=$(seal < "$BWIDE/body")
{ cat "$BWIDE/body"; echo "$SEAL"; } > "$BWIDE/BACKUPSET"
rm -f "$BWIDE/body"
grep -q "^widths 40 3$" "$BWIDE/BACKUPSET" || fail "widths line not replaced"
set +e
OUT=$("$CLI" restore --set "$BWIDE" --db "$BREST.wide" 2>&1)
RC=$?
set -e
[ "$RC" -eq 1 ] || fail "restore of a set with widths 40 3 should exit 1, got $RC"
echo "$OUT" | grep -q "Corruption" || fail "bad-width restore did not say Corruption"
echo "$OUT" | grep -q "widths" || fail "bad-width restore did not name the field"
[ ! -e "$BREST.wide" ] || fail "refused bad-width restore left a destination file"
rm -rf "$BWIDE"

# ---- sharded backup / restore: round trip, partial sets, degraded exit ----

# round trip of the repaired 4-shard store from the fsck section above
OUT=$("$CLI" backup --db "$SHARDFIX" --out "$SHSET") \
  || fail "sharded backup exited non-zero"
echo "$OUT" | grep -q "4 shards (0 failed)" || fail "sharded backup summary"
[ -f "$SHSET/SHARDBACKUP" ] || fail "sharded backup wrote no super-manifest"
OUT=$("$CLI" restore --set "$SHSET" --db "$SHREST") \
  || fail "sharded restore exited non-zero"
echo "$OUT" | grep -q "4 shards (0 failed)" || fail "sharded restore summary"
echo "$OUT" | grep "shard 3" | grep -q "replayed to LSN" \
  || fail "sharded restore per-shard lines"
SHGOT=$("$CLI" storeinfo --db "$SHREST" | sed -n 's/^records: *\([0-9]*\).*/\1/p')
[ "$SHGOT" = "$FIXED" ] || fail "sharded restore records ($SHGOT) != source ($FIXED)"
OUT=$("$CLI" storeinfo --db "$SHREST" --json) || fail "sharded storeinfo --json"
echo "$OUT" | grep -q '"kind":"sharded"' || fail "sharded json kind"
echo "$OUT" | grep -q '"healthy":true' || fail "sharded json healthy flag"
echo "$OUT" | grep -q '"shard":\[{"index":0,"ok":true' || fail "sharded json shards"

# kill one shard's superblock: backup degrades to a partial set (exit 2),
# restoring it brings the store up degraded (exit 2 end to end)
"$CLI" corrupt --db "$SHARDFIX/shard-0001.bmeh" --page 1 --byte 80 > /dev/null \
  || fail "superblock corrupt of the backup source failed"
rm -rf "$SHSET" "$SHREST"
set +e
OUT=$("$CLI" backup --db "$SHARDFIX" --out "$SHSET")
RC=$?
set -e
[ "$RC" -eq 2 ] || fail "partial sharded backup should exit 2, got $RC"
echo "$OUT" | grep -q "backup set is PARTIAL (3 of 4 shards)" \
  || fail "partial backup verdict"
echo "$OUT" | grep "shard 1" | grep -q "FAILED" || fail "failed shard not named"
set +e
OUT=$("$CLI" restore --set "$SHSET" --db "$SHREST")
RC=$?
set -e
[ "$RC" -eq 2 ] || fail "partial sharded restore should exit 2, got $RC"
echo "$OUT" | grep -q "restore is PARTIAL (3 of 4 shards" \
  || fail "partial restore verdict"
set +e
OUT=$("$CLI" storeinfo --db "$SHREST" --json)
RC=$?
set -e
[ "$RC" -eq 2 ] || fail "degraded restored storeinfo should exit 2, got $RC"
echo "$OUT" | grep -q '"healthy":false' || fail "restored degraded json flag"
echo "$OUT" | grep -q '"ok":false' || fail "restored down shard not in json"

# ---- incremental backups whose --base is a relative path ----

# a relative base that is not a bare sibling name restores, single file
# and sharded alike: run from inside $WORK, as a shell user would
case "$CLI" in
  /*) CLI_ABS="$CLI" ;;
  *) CLI_ABS="$PWD/$CLI" ;;
esac
mkdir "$WORK/rel"
"$CLI" storebuild --db "$WORK/rel/shdb" --shards 2 --n 200 --b 8 \
      --page-size 512 --seed 9 > /dev/null || fail "relative-base storebuild"
cp "$BDB" "$WORK/rel/one.bmeh"
(
  cd "$WORK/rel"
  mkdir sets
  "$CLI_ABS" backup --db one.bmeh --out sets/full > /dev/null \
    || fail "relative-base full backup"
  "$CLI_ABS" backup --db one.bmeh --out sets/inc --base sets/full > /dev/null \
    || fail "relative-base incremental backup"
  OUT=$("$CLI_ABS" restore --set sets/inc --db restored.bmeh) \
    || fail "restore of an incremental with base sets/full"
  RGOT=$("$CLI_ABS" storeinfo --db restored.bmeh | sed -n 's/^records: *\([0-9]*\).*/\1/p')
  [ "$RGOT" = "$BSRC" ] || fail "relative-base restore records ($RGOT) != source ($BSRC)"
  SRC=$("$CLI_ABS" storeinfo --db shdb | sed -n 's/^records: *\([0-9]*\).*/\1/p')
  "$CLI_ABS" backup --db shdb --out sfull > /dev/null \
    || fail "relative-base sharded full backup"
  "$CLI_ABS" backup --db shdb --out sinc --base sfull > /dev/null \
    || fail "relative-base sharded incremental backup"
  OUT=$("$CLI_ABS" restore --set sinc --db shrest) \
    || fail "restore of a sharded incremental with base sfull"
  echo "$OUT" | grep -q "2 shards (0 failed)" || fail "relative-base sharded restore"
  RGOT=$("$CLI_ABS" storeinfo --db shrest | sed -n 's/^records: *\([0-9]*\).*/\1/p')
  [ "$RGOT" = "$SRC" ] || fail "relative-base sharded restore records ($RGOT) != source ($SRC)"
)

# ---- serve: the live telemetry plane over HTTP ----

SERVEDIR="$WORK/servedir"
SERVELOG="$WORK/servelog"
SERVEBODY="$WORK/servebody"
OPLOG="$WORK/oplog"

# Fetches http://127.0.0.1:$1$2 into $3 and echoes the status code.
http_get() {
  if command -v curl > /dev/null 2>&1; then
    curl -s -o "$3" -w "%{http_code}" "http://127.0.0.1:$1$2"
  else
    python3 -c '
import sys, urllib.request
port, path, out = sys.argv[1:4]
try:
    r = urllib.request.urlopen("http://127.0.0.1:%s%s" % (port, path))
    body, code = r.read(), r.getcode()
except urllib.error.HTTPError as e:
    body, code = e.read(), e.code
open(out, "wb").write(body)
print(code, end="")
' "$1" "$2" "$3"
  fi
}

# Starts `serve` on $1 (extra flags in $2...), waits for the serving line,
# sets SERVE_PID and SERVE_PORT.
start_serve() {
  : > "$SERVELOG"
  "$CLI" serve --db "$@" --b 8 --page-size 512 > "$SERVELOG" 2>&1 &
  SERVE_PID=$!
  i=0
  while [ $i -lt 100 ]; do
    SERVE_PORT=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$SERVELOG")
    [ -n "$SERVE_PORT" ] && return 0
    kill -0 "$SERVE_PID" 2> /dev/null || { cat "$SERVELOG" >&2; fail "serve died at startup"; }
    sleep 0.1
    i=$((i + 1))
  done
  fail "serve never printed its port"
}

# Healthy sharded store: every endpoint answers, /healthz is 200.
rm -rf "$SERVEDIR"
"$CLI" storebuild --db "$SERVEDIR" --shards 4 --n 400 --b 8 \
      --page-size 512 --seed 11 > /dev/null || fail "serve-fixture storebuild"
start_serve "$SERVEDIR" --probe-ops 10 --oplog "$OPLOG"

CODE=$(http_get "$SERVE_PORT" /healthz "$SERVEBODY")
[ "$CODE" = "200" ] || fail "healthy /healthz should be 200, got $CODE"
grep -q "ok" "$SERVEBODY" || fail "healthy /healthz body"

CODE=$(http_get "$SERVE_PORT" /metrics "$SERVEBODY")
[ "$CODE" = "200" ] || fail "/metrics should be 200, got $CODE"
grep -q "bmeh_store_writes_total" "$SERVEBODY" || fail "served metrics writes counter"
grep -q "bmeh_store_shards 4" "$SERVEBODY" || fail "served metrics shard gauge"
grep -q "# TYPE bmeh_store_stalled_total counter" "$SERVEBODY" \
  || fail "served metrics watchdog counter"

CODE=$(http_get "$SERVE_PORT" /statusz "$SERVEBODY")
[ "$CODE" = "200" ] || fail "/statusz should be 200, got $CODE"
grep -q '"kind":"sharded"' "$SERVEBODY" || fail "statusz kind"
grep -q '"down_shards":0' "$SERVEBODY" || fail "statusz down_shards"

CODE=$(http_get "$SERVE_PORT" /tracez "$SERVEBODY")
[ "$CODE" = "200" ] || fail "/tracez should be 200, got $CODE"
grep -q '"traceEvents"' "$SERVEBODY" || fail "tracez is not Chrome JSON"

# SIGTERM lands a clean exit (the signal handler, not the default action)
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
RC=$?
SERVE_PID=""
[ "$RC" -eq 0 ] || fail "serve should exit 0 on SIGTERM, got $RC"
grep -q "shutting down" "$SERVELOG" || fail "serve did not log its shutdown"

# the probe traffic produced correlated wide events in the op-log file
[ -s "$OPLOG" ] || fail "serve wrote no op-log"
grep -q '"trace_id":"' "$OPLOG" || fail "op-log lines carry no trace_id"
grep -q '"op":"put"' "$OPLOG" || fail "op-log saw no put"

# Degrade one shard: a kPartial serve answers 503 with the reason.
# Flip the header magic (page 0 byte 0) — that fails the shard's *open*;
# a data-page flip only trips the scrub, which open tolerates.
"$CLI" corrupt --db "$SERVEDIR/shard-0002.bmeh" --page 0 --byte 0 \
      > /dev/null || fail "serve-scenario shard corrupt failed"
start_serve "$SERVEDIR"

CODE=$(http_get "$SERVE_PORT" /healthz "$SERVEBODY")
[ "$CODE" = "503" ] || fail "degraded /healthz should be 503, got $CODE"
grep -q "DEGRADED: 1 of 4 shards down" "$SERVEBODY" || fail "degraded reason body"
CODE=$(http_get "$SERVE_PORT" /statusz "$SERVEBODY")
[ "$CODE" = "200" ] || fail "degraded /statusz should still answer"
grep -q '"index":2,"up":false' "$SERVEBODY" || fail "statusz down shard"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
RC=$?
SERVE_PID=""
[ "$RC" -eq 0 ] || fail "degraded serve should still exit 0 on SIGTERM, got $RC"

# A shard that opens degraded by corruption (a flipped data page, not a
# failed open) also turns /healthz 503, as the same flip in a store file
# does.
rm -rf "$SERVEDIR"
"$CLI" storebuild --db "$SERVEDIR" --shards 4 --n 400 --b 8 \
      --page-size 512 --seed 11 > /dev/null || fail "degraded-shard storebuild"
"$CLI" corrupt --db "$SERVEDIR/shard-0001.bmeh" --page 7 --byte 100 \
      > /dev/null || fail "degraded-shard corrupt failed"
start_serve "$SERVEDIR"
CODE=$(http_get "$SERVE_PORT" /healthz "$SERVEBODY")
[ "$CODE" = "503" ] || fail "degraded-shard /healthz should be 503, got $CODE"
grep -q "DEGRADED" "$SERVEBODY" || fail "degraded-shard /healthz body"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
RC=$?
SERVE_PID=""
[ "$RC" -eq 0 ] || fail "degraded-shard serve should exit 0 on SIGTERM, got $RC"

# A store file serves as a one-shard store: /statusz says "kind":"store"
# and a healthy file answers /healthz 200.
"$CLI" storebuild --db "$SERVEDIR.file" --n 200 --b 8 --page-size 512 \
      --seed 5 > /dev/null || fail "store-file serve storebuild"
start_serve "$SERVEDIR.file" --probe-ops 10
CODE=$(http_get "$SERVE_PORT" /healthz "$SERVEBODY")
[ "$CODE" = "200" ] || fail "store-file /healthz should be 200, got $CODE"
CODE=$(http_get "$SERVE_PORT" /statusz "$SERVEBODY")
[ "$CODE" = "200" ] || fail "store-file /statusz should be 200, got $CODE"
grep -q '"kind":"store"' "$SERVEBODY" || fail "store-file statusz kind"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
RC=$?
SERVE_PID=""
[ "$RC" -eq 0 ] || fail "store-file serve should exit 0 on SIGTERM, got $RC"
rm -f "$SERVEDIR.file"

# storebuild --serve exposes the plane during the build (the line proves
# the server came up; the build is too quick to scrape mid-flight)
OUT=$("$CLI" storebuild --db "$SERVEDIR.rebuild" --n 100 --b 8 \
      --page-size 512 --seed 3 --serve 127.0.0.1:0)
echo "$OUT" | grep -q "serving on 127.0.0.1:" || fail "storebuild --serve line"
rm -f "$SERVEDIR.rebuild"

echo "cli_test: all checks passed"
