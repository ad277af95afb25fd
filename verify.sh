#!/bin/sh
# verify.sh — the repo's check suite: vet, build, race-enabled tests
# (the obs registry/tracer concurrency tests gate first), a short fuzz
# smoke over the pcap/metrics fuzz targets, a deterministic-replay gate
# (the same fault seed twice must render a byte-identical κ report), a
# campaign resume gate (a campaign interrupted twice and resumed must
# render the uninterrupted table byte-for-byte), a choird service gate
# (a served consistency report must be byte-identical to the offline
# CLI's, including after a SIGTERM mid-session and journal resume), a
# span-tracing gate (serving with -spans=false must produce the same
# bytes as the spans-on daemon, and the spans-on trace endpoint must
# yield a tree choirtrace reconstructs the serving critical path from),
# and the streaming-vs-batch κ benchmark (pkts/s and bytes allocated)
# with a guard bounding the overhead of enabled telemetry. The bench/
# harness (a module of its own) has its tests run here too.
#
#	./verify.sh          # vet + build + tests under -race
#	                     # + fuzz smoke + fault-replay gate
#	./verify.sh -bench   # also: BenchmarkStreamKappa + obs guard,
#	                     # and allocs/op regression guards on
#	                     # MetricsCompare, psim Handoff, pcap
#	                     # StreamNext and StreamKappa
set -eu
cd "$(dirname "$0")"
# Captured before the choird gate's `set --` clobbers the script args.
MODE="${1:-}"

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./internal/obs (concurrency gate)"
go test -race ./internal/obs

echo "== go test -race ./internal/parallel ./internal/experiments (scheduler differential gate)"
go test -race ./internal/parallel ./internal/experiments

echo "== go test -race ./..."
go test -race ./...

echo "== go test -C bench ./... (the benchmark harness is its own module: smoke of all six workloads)"
go test -C bench ./...

echo "== fuzz smoke (10s per target; seed corpus under testdata/fuzz runs in every plain go test)"
go test ./internal/pcap -run='^$' -fuzz='^FuzzStream$' -fuzztime=10s
go test ./internal/metrics -run='^$' -fuzz='^FuzzCompare$' -fuzztime=10s

echo "== deterministic-replay gate (same fault seed twice => byte-identical kappa report)"
replay_tmp=$(mktemp -d)
trap 'kill "${CHOIRD_PID:-}" 2>/dev/null || true; rm -rf "$replay_tmp"' EXIT
go build -o "$replay_tmp/faultsweep" ./cmd/faultsweep
"$replay_tmp/faultsweep" -seed 7 -packets 8000 >"$replay_tmp/sweep1.txt"
"$replay_tmp/faultsweep" -seed 7 -packets 8000 >"$replay_tmp/sweep2.txt"
cmp "$replay_tmp/sweep1.txt" "$replay_tmp/sweep2.txt"
echo "faultsweep -seed 7: two runs byte-identical ($(wc -c <"$replay_tmp/sweep1.txt") bytes)"

echo "== campaign resume gate (interrupt twice, resume to completion => byte-identical table)"
go build -o "$replay_tmp/experiments" ./cmd/experiments
campaign_run() {
	"$replay_tmp/experiments" -campaign gate -envs "Local Single-Replayer" \
		-conditions "clean;drop=0.02,jitter=2e3" \
		-reps 2 -packets 1000 -runs 2 -seed 7 "$@" 2>/dev/null
}
# Uninterrupted reference run.
campaign_run -journal "$replay_tmp/full.journal" >"$replay_tmp/campaign-full.txt"
# Interrupted run: checkpoint after one trial, twice, then resume to the end.
campaign_run -journal "$replay_tmp/chunk.journal" -stop-after 1 >"$replay_tmp/campaign-resumed.txt"
campaign_run -journal "$replay_tmp/chunk.journal" -stop-after 1 -resume >"$replay_tmp/campaign-resumed.txt"
campaign_run -journal "$replay_tmp/chunk.journal" -resume >"$replay_tmp/campaign-resumed.txt"
cmp "$replay_tmp/campaign-full.txt" "$replay_tmp/campaign-resumed.txt"
echo "campaign -seed 7: interrupted-twice-and-resumed table byte-identical ($(wc -c <"$replay_tmp/campaign-full.txt") bytes)"

echo "== parallel-in-space gate (sharded simulation core ≡ sequential engine, byte-for-byte)"
# The same artifact rendered by the single-engine core and by the
# 4-domain sharded core must print identical bytes: same traces, same
# kappa, same obs counters. table2 spans every environment, including
# noise contention and the dual-replayer merge.
shard_run() { # $1 = -sim-shards value
	"$replay_tmp/experiments" -run table2 -packets 2000 -runs 2 -seed 7 \
		-sim-shards "$1" 2>/dev/null
}
shard_run 1 >"$replay_tmp/shards1.txt"
shard_run 4 >"$replay_tmp/shards4.txt"
cmp "$replay_tmp/shards1.txt" "$replay_tmp/shards4.txt"
echo "experiments table2: -sim-shards 4 byte-identical to -sim-shards 1 ($(wc -c <"$replay_tmp/shards1.txt") bytes)"
# Same equivalence under fault plans, with the race detector watching the
# domain handoffs (go run -race; the campaign path covers the injector).
shard_campaign() { # $1 = -sim-shards value
	go run -race ./cmd/experiments -campaign psimgate -envs "Local Single-Replayer" \
		-conditions "drop=0.005,jitter=2e3;dup=0.002,reorder=0.01" \
		-reps 1 -packets 1000 -runs 2 -seed 7 \
		-journal "$replay_tmp/psim-$1.journal" -sim-shards "$1" 2>/dev/null
}
shard_campaign 1 >"$replay_tmp/psim-c1.txt"
shard_campaign 4 >"$replay_tmp/psim-c4.txt"
cmp "$replay_tmp/psim-c1.txt" "$replay_tmp/psim-c4.txt"
echo "fault campaign under -race: sharded core byte-identical to sequential ($(wc -c <"$replay_tmp/psim-c1.txt") bytes)"

echo "== differentiation gate (diffdetect: rerun + sharded byte-identical; throttled flags, neutral control silent)"
go build -o "$replay_tmp/diffdetect" ./cmd/diffdetect
diff_run() { # extra diffdetect args appended
	"$replay_tmp/diffdetect" -workload all -rate-frac 0.5 -seed 11 \
		-packets 1200 -runs 2 "$@" 2>/dev/null
}
# Same seed twice: the verdict tables must be byte-identical.
diff_run >"$replay_tmp/diff1.txt"
diff_run >"$replay_tmp/diff2.txt"
cmp "$replay_tmp/diff1.txt" "$replay_tmp/diff2.txt"
# Every throttled app must be flagged.
[ "$(grep -c '^differentiation: DETECTED' "$replay_tmp/diff1.txt")" = 5 ] ||
	{ echo "FAIL: throttled workloads not all flagged"; cat "$replay_tmp/diff1.txt"; exit 1; }
# The sharded simulation core must render the same verdicts.
diff_run -sim-shards 4 >"$replay_tmp/diff4.txt"
cmp "$replay_tmp/diff1.txt" "$replay_tmp/diff4.txt"
# Neutral control: no shaper in either arm, nothing may flag.
diff_run -neutral >"$replay_tmp/diffneutral.txt"
grep -q "DETECTED" "$replay_tmp/diffneutral.txt" &&
	{ echo "FAIL: neutral control flagged differentiation"; cat "$replay_tmp/diffneutral.txt"; exit 1; }
[ "$(grep -c '^differentiation: none' "$replay_tmp/diffneutral.txt")" = 5 ] ||
	{ echo "FAIL: neutral control missing verdicts"; cat "$replay_tmp/diffneutral.txt"; exit 1; }
echo "diffdetect -workload all: throttled verdicts deterministic and shard-invariant ($(wc -c <"$replay_tmp/diff1.txt") bytes), neutral control silent"

echo "== choird service gate (served report ≡ offline consistency; SIGTERM drain + journal resume)"
go build -o "$replay_tmp/choird" ./cmd/choird
go build -o "$replay_tmp/consistency" ./cmd/consistency
go build -o "$replay_tmp/choirsim" ./cmd/choirsim
mkdir -p "$replay_tmp/caps"
"$replay_tmp/choirsim" -packets 3000 -runs 2 -seed 11 -out "$replay_tmp/caps" >/dev/null
set -- "$replay_tmp/caps"/run-*.pcap
cp "$1" "$replay_tmp/A.pcap"
cp "$2" "$replay_tmp/B.pcap"
(cd "$replay_tmp" && ./consistency A.pcap B.pcap >offline.txt)

choird_start() { # $1 = log file; extra args appended (later flags win)
	log="$1"
	shift
	"$replay_tmp/choird" -addr 127.0.0.1:0 -dir "$replay_tmp/state" -seed 3 "$@" >"$log" 2>&1 &
	CHOIRD_PID=$!
	CHOIRD_URL=""
	i=0
	while [ $i -lt 100 ]; do
		CHOIRD_URL=$(sed -n 's|^choird: listening on \(http://[^ ]*\).*|\1|p' "$log")
		[ -n "$CHOIRD_URL" ] && return 0
		kill -0 "$CHOIRD_PID" 2>/dev/null || { echo "FAIL: choird exited early"; cat "$log"; exit 1; }
		sleep 0.1
		i=$((i + 1))
	done
	echo "FAIL: choird never printed its listen address"
	cat "$log"
	exit 1
}
choird_poll() { # $1 = session id; waits for a 200 result
	i=0
	while [ $i -lt 200 ]; do
		code=$(curl -s -o /dev/null -w '%{http_code}' "$CHOIRD_URL/v1/sessions/$1/result")
		[ "$code" = 200 ] && return 0
		[ "$code" = 202 ] || { echo "FAIL: session $1 result returned HTTP $code"; exit 1; }
		sleep 0.1
		i=$((i + 1))
	done
	echo "FAIL: session $1 never finished"
	exit 1
}

choird_start "$replay_tmp/choird1.log"
sid=$(curl -s -F a=@"$replay_tmp/A.pcap" -F b=@"$replay_tmp/B.pcap" "$CHOIRD_URL/v1/sessions" |
	sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$sid" ] || { echo "FAIL: upload returned no session id"; exit 1; }
choird_poll "$sid"
curl -s "$CHOIRD_URL/v1/sessions/$sid/result?format=consistency" >"$replay_tmp/served.txt"
cmp "$replay_tmp/served.txt" "$replay_tmp/offline.txt"
echo "choird session $sid: served consistency report byte-identical to offline CLI"

# Drain/resume: pause dispatch, admit a session (journaled, never run),
# SIGTERM the daemon, restart over the same state dir — the session must
# resume and serve the same bytes the CLI renders for the pair.
curl -s -X POST "$CHOIRD_URL/v1/admin/pause" >/dev/null
sid2=$(curl -s -F a=@"$replay_tmp/A.pcap" -F b=@"$replay_tmp/B.pcap" "$CHOIRD_URL/v1/sessions" |
	sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$sid2" ] || { echo "FAIL: pre-drain upload returned no session id"; exit 1; }
kill -TERM "$CHOIRD_PID"
wait "$CHOIRD_PID" || { echo "FAIL: choird drain exited non-zero"; cat "$replay_tmp/choird1.log"; exit 1; }
choird_start "$replay_tmp/choird2.log"
choird_poll "$sid2"
curl -s "$CHOIRD_URL/v1/sessions/$sid2/result?format=consistency" >"$replay_tmp/resumed.txt"
cmp "$replay_tmp/resumed.txt" "$replay_tmp/offline.txt"
kill -TERM "$CHOIRD_PID"
wait "$CHOIRD_PID" || true
CHOIRD_PID=""
echo "choird session $sid2: SIGTERM-interrupted, journal-resumed, report still byte-identical"

echo "== span-tracing gate (spans off => same served bytes; trace endpoint + choirtrace critical path)"
go build -o "$replay_tmp/choirtrace" ./cmd/choirtrace
# The gates above ran with tracing on (the default). A -spans=false
# daemon over the same pair must serve the identical report: spans
# observe the serving path, they never steer it.
choird_start "$replay_tmp/choird3.log" -dir "$replay_tmp/state-nospans" -spans=false
sid3=$(curl -s -F a=@"$replay_tmp/A.pcap" -F b=@"$replay_tmp/B.pcap" "$CHOIRD_URL/v1/sessions" |
	sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$sid3" ] || { echo "FAIL: spans-off upload returned no session id"; exit 1; }
choird_poll "$sid3"
curl -s "$CHOIRD_URL/v1/sessions/$sid3/result?format=consistency" >"$replay_tmp/nospans.txt"
cmp "$replay_tmp/nospans.txt" "$replay_tmp/offline.txt"
code=$(curl -s -o /dev/null -w '%{http_code}' "$CHOIRD_URL/v1/sessions/$sid3/trace")
[ "$code" = 404 ] || { echo "FAIL: spans-off trace endpoint returned HTTP $code, want 404"; exit 1; }
kill -TERM "$CHOIRD_PID"
wait "$CHOIRD_PID" || true
CHOIRD_PID=""
echo "choird session $sid3: -spans=false report byte-identical to spans-on and offline"

# Spans-on daemon: record the session's causal tree, then reconstruct
# its critical path offline with choirtrace.
choird_start "$replay_tmp/choird4.log" -dir "$replay_tmp/state-spans"
code=$(curl -s -o /dev/null -w '%{http_code}' "$CHOIRD_URL/readyz")
[ "$code" = 200 ] || { echo "FAIL: /readyz returned HTTP $code on an idle daemon"; exit 1; }
sid4=$(curl -s -F a=@"$replay_tmp/A.pcap" -F b=@"$replay_tmp/B.pcap" "$CHOIRD_URL/v1/sessions" |
	sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$sid4" ] || { echo "FAIL: spans-on upload returned no session id"; exit 1; }
choird_poll "$sid4"
curl -s "$CHOIRD_URL/v1/sessions/$sid4/result?format=consistency" >"$replay_tmp/spanson.txt"
cmp "$replay_tmp/spanson.txt" "$replay_tmp/offline.txt"
curl -s "$CHOIRD_URL/v1/sessions/$sid4/trace" >"$replay_tmp/trace.json"
kill -TERM "$CHOIRD_PID"
wait "$CHOIRD_PID" || true
CHOIRD_PID=""
"$replay_tmp/choirtrace" "$replay_tmp/trace.json" >"$replay_tmp/choirtrace.txt"
grep -q "$sid4" "$replay_tmp/choirtrace.txt" || { echo "FAIL: choirtrace lost session $sid4"; cat "$replay_tmp/choirtrace.txt"; exit 1; }
for stage in admission spool wal 'compare\[' render; do
	grep -q "$stage" "$replay_tmp/choirtrace.txt" || { echo "FAIL: stage $stage missing from critical path"; cat "$replay_tmp/choirtrace.txt"; exit 1; }
done
echo "choird session $sid4: recorded trace reconstructs admission→spool→wal→compare[...]→render"

if [ "$MODE" = "-bench" ]; then
	echo "== BenchmarkStreamKappa (streaming vs batch windowed κ, obs on vs off)"
	out=$(go test ./internal/stream -run='^$' -bench=StreamKappa -benchmem)
	printf '%s\n' "$out"
	echo "== obs overhead guard (shards=4, enabled registry vs disabled)"
	printf '%s\n' "$out" | awk '
		{
			for (i = 2; i <= NF; i++) if ($i == "pkts/s") {
				if ($1 ~ /shards=4\/obs(-[0-9]+)?$/) on = $(i-1)
				else if ($1 ~ /shards=4(-[0-9]+)?$/) off = $(i-1)
			}
		}
		END {
			if (on <= 0 || off <= 0) { print "FAIL: missing pkts/s samples"; exit 1 }
			ovh = (off - on) / off * 100
			printf "obs-enabled throughput %.0f pkts/s vs %.0f disabled (%.1f%% overhead)\n", on, off, ovh
			if (ovh > 25) { print "FAIL: enabled-obs overhead exceeds 25%"; exit 1 }
		}'

	echo "== allocs/op regression guards (hot-path allocation overhaul)"
	# BenchmarkMetricsCompare: seed tree measured 2128 allocs/op on the
	# same 200k-packet workload; the guard holds the scratch-arena win at
	# >=30% below seed (budget 1490; currently ~222).
	cmp_out=$(go test . -run='^$' -bench='MetricsCompare$' -benchmem -benchtime=3x)
	printf '%s\n' "$cmp_out"
	printf '%s\n' "$cmp_out" | awk '
		/BenchmarkMetricsCompare/ {
			for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
		}
		END {
			if (allocs == "") { print "FAIL: no allocs/op sample for MetricsCompare"; exit 1 }
			printf "BenchmarkMetricsCompare: %d allocs/op (budget 1490 = 30%% under the 2128 seed)\n", allocs
			if (allocs + 0 > 1490) { print "FAIL: MetricsCompare allocs/op regressed past budget"; exit 1 }
		}'
	# BenchmarkHandoff: the cross-domain handoff path (actor Send → SPSC
	# ring → Inject → pooled heap insert) must not allocate in steady
	# state; budget 2 leaves headroom for runtime noise only.
	ho_out=$(go test ./internal/psim -run='^$' -bench='Handoff$' -benchmem)
	printf '%s\n' "$ho_out"
	printf '%s\n' "$ho_out" | awk '
		/BenchmarkHandoff/ {
			for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
		}
		END {
			if (allocs == "") { print "FAIL: no allocs/op sample for psim Handoff"; exit 1 }
			printf "BenchmarkHandoff: %d allocs/op (budget 2; steady state is 0)\n", allocs
			if (allocs + 0 > 2) { print "FAIL: psim handoff path allocates"; exit 1 }
		}'
	# BenchmarkStreamNext: capture decode parses records in place in the
	# read buffer and hands packets out of chunks, so one record is 0
	# objects (1/256 of a chunk, which rounds to 0); budget 0 — a single
	# per-record allocation reads as 1.
	dec_out=$(go test ./internal/pcap -run='^$' -bench='StreamNext$' -benchmem)
	printf '%s\n' "$dec_out"
	printf '%s\n' "$dec_out" | awk '
		/BenchmarkStreamNext/ {
			for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
		}
		END {
			if (allocs == "") { print "FAIL: no allocs/op sample for pcap StreamNext"; exit 1 }
			printf "BenchmarkStreamNext: %d allocs/op (budget 0)\n", allocs
			if (allocs + 0 > 0) { print "FAIL: capture decode allocates per record"; exit 1 }
		}'
	# BenchmarkStreamKappa shards=4: position-buffer and winState reuse
	# landed ~4.5k allocs/op on the 50k-packet pair; budget 9000 catches
	# a pooling regression while leaving noise headroom.
	printf '%s\n' "$out" | awk '
		{
			for (i = 2; i <= NF; i++) if ($i == "allocs/op") {
				if ($1 ~ /stream\/shards=4(-[0-9]+)?$/) allocs = $(i-1)
			}
		}
		END {
			if (allocs == "") { print "FAIL: no allocs/op sample for StreamKappa shards=4"; exit 1 }
			printf "BenchmarkStreamKappa shards=4: %d allocs/op (budget 9000)\n", allocs
			if (allocs + 0 > 9000) { print "FAIL: StreamKappa allocs/op regressed past budget"; exit 1 }
		}'
fi

echo "ok"
