#!/usr/bin/env bash
# Placement-service e2e smoke: boot cmd/served on a random port, prove
# served placements, on a cold and on a warm field reference, are
# byte-identical to the cmd/osd CLI line for the same inputs, check the
# serve_* metrics are exported and an over-cap forest spec is a 400, then
# SIGTERM the daemon with a request in flight and require that request to
# complete and the process to exit 0.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/served" ./cmd/served
go build -o "$workdir/osd" ./cmd/osd

port=$((20000 + RANDOM % 20000))
url="http://127.0.0.1:$port"
"$workdir/served" -addr "127.0.0.1:$port" -quiet &
served=$!
pids+=("$served")

for _ in $(seq 1 100); do
  curl -fsS --max-time 2 "$url/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS --max-time 2 "$url/healthz" >/dev/null || { echo "served never came up"; exit 1; }

# The served placement must be byte-identical to the CLI for the same
# logical request (same field, strategy, knobs).
"$workdir/osd" -k 40 -rc 10 -grid 60 -delta-grid 60 -seed 1 -quiet > "$workdir/cli.txt"
curl -fsS -X POST "$url/v1/place?format=text" \
  -d '{"field":{"kind":"forest"},"k":40,"rc":10,"grid_n":60,"delta_n":60,"seed":1,"strategy":"fra"}' \
  > "$workdir/srv.txt"
cmp "$workdir/cli.txt" "$workdir/srv.txt"
echo "serve smoke: served placement byte-identical to CLI ($(cat "$workdir/srv.txt"))"

# A second k on the same field misses the response cache but reuses the
# field's filled lattices (a reference hit); it must still match the CLI.
"$workdir/osd" -k 55 -rc 10 -grid 60 -delta-grid 60 -seed 1 -quiet > "$workdir/cli2.txt"
curl -fsS -X POST "$url/v1/place?format=text" \
  -d '{"field":{"kind":"forest"},"k":55,"rc":10,"grid_n":60,"delta_n":60,"seed":1,"strategy":"fra"}' \
  > "$workdir/srv2.txt"
cmp "$workdir/cli2.txt" "$workdir/srv2.txt"
echo "serve smoke: placement on a warm reference byte-identical to CLI ($(cat "$workdir/srv2.txt"))"

# The serve_* series ride the /metrics exposition.
curl -fsS "$url/metrics" > "$workdir/metrics.txt"
for series in serve_requests_total serve_request_seconds serve_queue_depth serve_cache_misses_total \
  serve_reference_bytes; do
  grep -q "$series" "$workdir/metrics.txt" || { echo "missing $series in /metrics"; exit 1; }
done
grep -q '^serve_reference_hits_total 1$' "$workdir/metrics.txt" ||
  { echo "the second placement was not a reference hit:"; grep serve_reference "$workdir/metrics.txt"; exit 1; }

# A forest spec past the sweep's feature cap is refused up front.
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$url/v1/place" \
  -d '{"field":{"kind":"forest","gaps":2000},"k":5}')
[ "$code" = 400 ] || { echo "forest with gaps past the cap answered $code, want 400"; exit 1; }

# An async sweep job runs to completion and streams checkpoint JSONL.
cat > "$workdir/spec.json" <<'EOF'
{
  "name": "serve-smoke",
  "fields": [{"kind": "peaks"}],
  "ks": [4, 8],
  "rcs": [30],
  "grid_n": 16,
  "delta_n": 16,
  "random_draws": 1
}
EOF
job=$(curl -fsS -X POST "$url/v1/sweeps" -d @"$workdir/spec.json" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$job" ] || { echo "sweep submit returned no job id"; exit 1; }
for _ in $(seq 1 300); do
  state=$(curl -fsS "$url/v1/sweeps/$job" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
  [ "$state" = done ] && break
  [ "$state" = failed ] && { echo "sweep job failed"; exit 1; }
  sleep 0.1
done
[ "$state" = done ] || { echo "sweep job stuck in state $state"; exit 1; }
lines=$(curl -fsS "$url/v1/sweeps/$job/results" | wc -l)
[ "$lines" -eq 3 ] || { echo "results stream has $lines lines, want header + 2 cells"; exit 1; }

# Graceful drain: SIGTERM with a slow request in flight; the request
# must still complete with a full response and the daemon must exit 0.
curl -fsS --max-time 120 -X POST "$url/v1/place?format=text" \
  -d '{"field":{"kind":"forest"},"k":120,"rc":10,"grid_n":120,"delta_n":150,"seed":7}' \
  > "$workdir/inflight.txt" &
inflight=$!
pids+=("$inflight")
sleep 0.3
kill -TERM "$served"
wait "$inflight" || { echo "in-flight request dropped during drain"; exit 1; }
grep -q '^FRA k=120: ' "$workdir/inflight.txt" || { echo "in-flight response truncated: $(cat "$workdir/inflight.txt")"; exit 1; }
wait "$served" || { echo "served exited non-zero after SIGTERM"; exit 1; }
echo "serve smoke: drained cleanly with in-flight request completed"
