#!/usr/bin/env bash
# Two-process PSI demo on loopback: dealer service, tuple fetch, online run.
set -euo pipefail

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
PARAMS=(--n 1024 --k 3 --sigma 32)
PORT=47111
OLEPSI=(python3 -m olepsi.cli)

seq 1 1000 > "$DIR/alice.set"
seq 501 1500 > "$DIR/bob.set"

echo "== dealer service =="
"${OLEPSI[@]}" dealer --listen "127.0.0.1:$PORT" --seed "$(printf 'ab%.0s' {1..32})" "${PARAMS[@]}" &
DEALER=$!
sleep 0.3
"${OLEPSI[@]}" offline --connect "127.0.0.1:$PORT" --role alice --out-alice "$DIR/a.tup" "${PARAMS[@]}"
"${OLEPSI[@]}" offline --connect "127.0.0.1:$PORT" --role bob --out-bob "$DIR/b.tup" "${PARAMS[@]}"
wait "$DEALER"

echo "== online run =="
"${OLEPSI[@]}" run --role alice --set "$DIR/alice.set" --tuples "$DIR/a.tup" \
    --listen "127.0.0.1:$((PORT + 1))" --out "$DIR/result.txt" --stats "${PARAMS[@]}" &
ALICE=$!
sleep 0.3
"${OLEPSI[@]}" run --role bob --set "$DIR/bob.set" --tuples "$DIR/b.tup" \
    --connect "127.0.0.1:$((PORT + 1))" --stats "${PARAMS[@]}"
wait "$ALICE"

echo "== result =="
GOT=$(wc -l < "$DIR/result.txt")
echo "intersection size: $GOT (expected 500)"
test "$GOT" -eq 500
head -3 "$DIR/result.txt"
echo "..."
tail -3 "$DIR/result.txt"
