#!/usr/bin/env bash
# Kill/resume convergence with a short write in the middle of a checkpoint
# that spans many write chunks.
#
# Usage: tools/chaos_wide_checkpoint.sh <commsig binary> <scratch dir>
#
# The generated trace has 80,000 events from 50 sources to about 20,000
# distinct destinations, so each checkpoint is about 10 MB — well over a
# hundred 64 KiB write chunks. The faulted run arms
# checkpoint/write=short_write@2x1: the second save's payload write tears
# at its last chunk, after the earlier chunks are on disk, and the retry
# policy re-encodes the checkpoint. The run is then killed at event 50,000
# (exit 3), and a second run resumes from the newest checkpoint. Its
# signatures must equal the fault-free run's, line for line.
set -euo pipefail

commsig="$1"
work="$2"
mkdir -p "$work"
trace="$work/wide_trace.csv"
ckpt="$work/ckpt_wide"

python3 - "$trace" <<'EOF'
import random
import sys

random.seed(17)
with open(sys.argv[1], "w") as f:
    t = 0
    for _ in range(80000):
        t += random.randint(1, 5)
        src = random.randint(0, 49)
        dst = random.randint(0, 19999)
        f.write(f"h{src},d{dst},{t},{random.random() * 9 + 1:.3f}\n")
EOF

"$commsig" stream --trace "$trace" --checkpoint-every 20000 \
  > "$work/wide_ref.tsv" 2> "$work/wide_ref.log"
sort "$work/wide_ref.tsv" > "$work/wide_ref.sorted"
test -s "$work/wide_ref.sorted"

rm -rf "$ckpt"
rc=0
"$commsig" stream --trace "$trace" \
  --checkpoint-dir "$ckpt" --checkpoint-every 20000 \
  --failpoints 'checkpoint/write=short_write@2x1' \
  --kill-after 50000 --log-file "$work/wide_fault.log" > /dev/null || rc=$?
test "$rc" -eq 3
grep -q '"event":"failpoint_fired"' "$work/wide_fault.log"
grep -q '"event":"io_retry_recovered"' "$work/wide_fault.log"
test ! -e "$ckpt/ckpt.tmp"

"$commsig" stream --trace "$trace" \
  --checkpoint-dir "$ckpt" --checkpoint-every 20000 \
  --log-file "$work/wide_resume.log" > "$work/wide.tsv"
grep -q '"event":"checkpoint_restored"' "$work/wide_resume.log"
sort "$work/wide.tsv" | cmp - "$work/wide_ref.sorted"
echo "chaos_wide_checkpoint: resumed run matches the fault-free run"
