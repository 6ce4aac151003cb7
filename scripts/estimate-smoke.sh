#!/bin/sh
# estimate-smoke.sh KIND — end-to-end smoke test of one sharded
# estimate, as run by CI and `make KIND-smoke`. KIND is one of
#
#   yield     rare-event DRV yield (cmd/yield, 64 samples at a shallow
#             Vref; the deep tail is BenchmarkYield6Sigma's)
#   faultmap  correlated fault-map coverage (cmd/faultmap, a 1000-map
#             corpus under March m-LZ and March C-; FAULTMAP_MAPS
#             overrides the size)
#   noise     EXP-NS flip-probability scan (cmd/noisescan, 5 rail points
#             on the near-DRV CS5-1)
#
# Every kind goes through the same gates: build the CLI and sramd, run
# the estimate locally at each of the kind's worker counts (all
# byte-identical), fan it out as two shard jobs through a daemon's
# POST /v1/batch (CLI -cluster; the merged output must be byte-identical
# to the local run), submit it once more as a whole daemon job (same
# bytes again), and check the kind's counters on /metrics. The
# differences between kinds are the data blocks below; the only
# per-kind steps are faultmap's corpus-dump regeneration and noise's
# static-vs-noise divergence gate. Writes the local report to
# results/KIND-smoke.txt.
#
# Requires only a POSIX shell, curl and go. Exits non-zero on any
# failure and prints the daemon log.
set -eu

KIND="${1:-}"

# Per-kind data. ARGS is shell-quoted (evaluated once per run); MARKS
# (literal report strings) and METRICS (/metrics regexes) hold one
# pattern per line; STEPS names the extra step functions run after the
# local worker-count check; POLLS bounds the daemon job's 0.5 s polls.
case "$KIND" in
yield)
	CMD=yield
	PORT=8358
	ARGS='-n 64 -vref 0.34'
	WORKERS='1 4'
	MARKS='EXP-YD
failure probability'
	STEPS=''
	JOB='{"kind":"yield","yield":{"samples":64,"vref":0.34}}'
	POLLS=300
	METRICS='^sramd_yield_runs_total 1$
^sramd_yield_partials_total 2$
^sramd_yield_exact_solves_total [1-9]
^sramd_yield_last_ess [0-9]'
	;;
faultmap)
	MAPS="${FAULTMAP_MAPS:-1000}"
	CMD=faultmap
	PORT=8359
	ARGS="-maps $MAPS -tests 'March m-LZ,March C-'"
	WORKERS='1 4 8'
	MARKS='EXP-FM
corpus digest
March m-LZ'
	STEPS=dump_gate
	JOB="{\"kind\":\"faultmap\",\"faultmap\":{\"maps\":$MAPS,\"tests\":[\"March m-LZ\",\"March C-\"]}}"
	POLLS=600
	METRICS='^sramd_faultmap_runs_total 1$
^sramd_faultmap_partials_total 2$
^sramd_faultmap_maps_total [1-9]
^sramd_faultmap_last_best_coverage 0\.[0-9]'
	;;
noise)
	CMD=noisescan
	PORT=8357
	ARGS='-cs 5 -points 5'
	WORKERS='1 4'
	MARKS='EXP-NS
P(flip)'
	STEPS=divergence_gate
	JOB='{"kind":"noisescan","noisescan":{"caseStudy":5,"points":5}}'
	POLLS=300
	METRICS='^sramd_noise_scans_total 1$
^sramd_noise_partials_total 2$
^sramd_noise_flips_total [1-9]
^sramd_noise_last_tighten_volts 0\.0[0-9]
^sramd_spice_ensemble_runs_total [1-9]
^sramd_spice_noise_evals_total [1-9]'
	;;
*)
	echo "usage: sh scripts/estimate-smoke.sh yield|faultmap|noise" >&2
	exit 2
	;;
esac

ADDR="${SRAMD_ADDR:-127.0.0.1:$PORT}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
LOG="$TMP/sramd.log"
PID=""

say() { echo "$KIND-smoke: $*"; }

fail() {
	echo "$KIND-smoke: FAIL: $*" >&2
	echo "--- daemon log ---" >&2
	cat "$LOG" >&2 || true
	exit 1
}

cleanup() {
	if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
		kill -TERM "$PID" 2>/dev/null || true
		wait "$PID" 2>/dev/null || true
	fi
	rm -rf "$TMP"
}
trap cleanup EXIT

# estimate ARG... — run the kind's CLI on its ARGS plus ARG...
estimate() {
	eval "set -- $ARGS \"\$@\""
	"$TMP/$CMD" "$@"
}

# dump_gate — faultmap: a corpus dump regenerates byte-identically.
dump_gate() {
	say "corpus dump regenerates byte-identically"
	"$TMP/$CMD" -maps 64 -dump >"$TMP/dump1.ndjson" || fail "corpus dump failed"
	"$TMP/$CMD" -maps 64 -dump -workers 4 >"$TMP/dump2.ndjson" || fail "second corpus dump failed"
	cmp -s "$TMP/dump1.ndjson" "$TMP/dump2.ndjson" || fail "regenerated corpus dump differs"
	[ "$(wc -l <"$TMP/dump1.ndjson")" -eq 64 ] || fail "dump holds $(wc -l <"$TMP/dump1.ndjson") maps, want 64"
}

# tighten FILE — the tightening row's millivolt value of an EXP-NS
# summary table.
tighten() {
	sed -n 's/.*tightening.*[^0-9.-]\([0-9][0-9]*\.[0-9]\) mV.*/\1/p' "$1" | head -n 1
}

# divergence_gate — noise: the ensemble must tighten the near-DRV CS5-1
# threshold by >= 20 mV while leaving the strong-margin CS1-1 within
# 10 mV of its static DRV.
divergence_gate() {
	say "static-vs-noise divergence gate"
	CS5_MV=$(tighten "$TMP/w1.txt")
	[ -n "$CS5_MV" ] || fail "no tightening row in the CS5-1 summary"
	awk "BEGIN { exit !($CS5_MV >= 20) }" ||
		fail "near-DRV CS5-1 tightened only $CS5_MV mV, want >= 20 mV (criterion indistinguishable from static)"
	"$TMP/$CMD" -cs 1 -points 5 -workers 2 >"$TMP/cs1.txt" || fail "CS1-1 scan failed"
	CS1_MV=$(tighten "$TMP/cs1.txt")
	[ -n "$CS1_MV" ] || fail "no tightening row in the CS1-1 summary"
	awk "BEGIN { exit !($CS1_MV < 10) }" ||
		fail "strong-margin CS1-1 tightened $CS1_MV mV, want < 10 mV (noise criterion not selective)"
	say "CS5-1 tightens $CS5_MV mV, CS1-1 only $CS1_MV mV"
}

say "building $CMD and sramd"
go build -o "$TMP/$CMD" "./cmd/$CMD"
go build -o "$TMP/sramd" ./cmd/sramd

say "local estimate at workers = $WORKERS"
for w in $WORKERS; do
	estimate -workers "$w" >"$TMP/w$w.txt" || fail "local run (workers=$w) failed"
	cmp -s "$TMP/w1.txt" "$TMP/w$w.txt" || fail "workers=$w changed the result bytes"
done
while IFS= read -r mark; do
	grep -qF "$mark" "$TMP/w1.txt" || fail "report lacks \"$mark\": $(cat "$TMP/w1.txt")"
done <<EOF
$MARKS
EOF

for step in $STEPS; do
	"$step"
done

say "starting sramd on $ADDR"
"$TMP/sramd" -addr "$ADDR" -store-dir "$TMP/store" >"$LOG" 2>&1 &
PID=$!
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -lt 50 ] || fail "daemon never became healthy"
	kill -0 "$PID" 2>/dev/null || fail "daemon exited early"
	sleep 0.2
done

say "sharded cluster run through POST /v1/batch"
estimate -cluster "$BASE" -shards 2 >"$TMP/cluster.txt" || fail "cluster run failed"
cmp -s "$TMP/w1.txt" "$TMP/cluster.txt" || fail "cluster shards changed the result bytes"

say "whole $CMD job through POST /v1/jobs"
SUBMIT=$(curl -fsS -X POST "$BASE/v1/jobs" -d "$JOB")
ID=$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || fail "no job id in submit response: $SUBMIT"
i=0
while :; do
	STATUS=$(curl -fsS "$BASE/v1/jobs/$ID")
	STATE=$(printf '%s' "$STATUS" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
	case "$STATE" in
	done) break ;;
	failed | canceled) fail "job ended in state $STATE: $STATUS" ;;
	esac
	i=$((i + 1))
	[ "$i" -lt "$POLLS" ] || fail "job did not finish in time: $STATUS"
	sleep 0.5
done
curl -fsS "$BASE/v1/jobs/$ID/result" >"$TMP/daemon.txt"
cmp -s "$TMP/w1.txt" "$TMP/daemon.txt" || fail "daemon job bytes differ from the local CLI run"

say "checking counters on /metrics"
curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
while IFS= read -r pattern; do
	grep -q "$pattern" "$TMP/metrics.txt" || fail "/metrics lacks a line matching $pattern"
done <<EOF
$METRICS
EOF

say "shutting down"
kill -TERM "$PID"
wait "$PID" || fail "daemon exited non-zero on SIGTERM"
PID=""

mkdir -p results
cp "$TMP/w1.txt" "results/$KIND-smoke.txt"
say "PASS (results/$KIND-smoke.txt)"
