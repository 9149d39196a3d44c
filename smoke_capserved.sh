#!/usr/bin/env sh
# smoke_capserved.sh — end-to-end lifecycle check of the analysis
# service: build, serve on an ephemeral port, poll readiness, run one
# cached solvability query twice and one mixed batch, SIGTERM, and
# assert a clean drained exit. Deliberately free of fixed ports and
# sleeps-as-synchronization: the bound address is scraped from the
# server's own log line and readiness is polled, so the script is not
# timing-sensitive.
#
# A second leg (skippable with SMOKE_CLUSTER=0) smokes the cluster
# mode: three backends behind `capserved -coordinator`, with one
# backend SIGKILLed mid-run — the fleet must keep answering, the health
# prober must eject the corpse, and the membership admin API must
# support removing and re-adding a live backend under queries.
set -eu

cd "$(dirname "$0")"

WORK="$(mktemp -d)"
SERVED_PID=""
CLUSTER_PIDS=""
cleanup() {
	[ -n "${SERVED_PID}" ] && kill -9 "${SERVED_PID}" 2>/dev/null || true
	for p in ${CLUSTER_PIDS}; do
		kill -9 "${p}" 2>/dev/null || true
	done
	rm -rf "${WORK}"
}
trap cleanup EXIT INT TERM

go build -o "${WORK}/capserved" ./cmd/capserved

# SMOKE_BACKEND selects the served analysis backend (auto|symbolic|
# enumerate); the assertions below adapt, because the symbolic interval
# walk never touches the enumerating frontier gauges.
BACKEND="${SMOKE_BACKEND:-auto}"

"${WORK}/capserved" -addr 127.0.0.1:0 -drain 5s -backend "${BACKEND}" >"${WORK}/stdout.log" 2>"${WORK}/stderr.log" &
SERVED_PID=$!

# The server logs "capserved: listening on http://ADDR" once bound.
BASE=""
i=0
while [ $i -lt 100 ]; do
	BASE="$(sed -n 's/^capserved: listening on \(http:\/\/[^ ]*\)$/\1/p' "${WORK}/stderr.log" | head -n 1)"
	[ -n "${BASE}" ] && break
	if ! kill -0 "${SERVED_PID}" 2>/dev/null; then
		echo "smoke: capserved died before binding:" >&2
		cat "${WORK}/stderr.log" >&2
		exit 1
	fi
	i=$((i + 1))
	sleep 0.1
done
if [ -z "${BASE}" ]; then
	echo "smoke: capserved never logged its address" >&2
	cat "${WORK}/stderr.log" >&2
	exit 1
fi

# Readiness, then liveness.
i=0
until curl -fsS -o /dev/null "${BASE}/readyz"; do
	i=$((i + 1))
	[ $i -ge 50 ] && { echo "smoke: /readyz never turned ready" >&2; exit 1; }
	sleep 0.1
done
HEALTH="$(curl -fsS "${BASE}/healthz")"
[ "${HEALTH}" = "ok" ] || { echo "smoke: /healthz said '${HEALTH}'" >&2; exit 1; }

# One solvability query, twice: the repeat must be served from cache
# with the verdict's own counts (S1 at horizon 2 streams 28 leaf
# configurations) and no per-response engine block; the engine work
# shows in /v1/stats below. The miss carries its compute time in
# Server-Timing, the hit no Server-Timing, and neither body any timing.
BODY='{"scheme":"S1","horizon":2}'
FIRST="$(curl -fsS -D "${WORK}/firsthdr" -X POST -d "${BODY}" "${BASE}/v1/solvable")"
echo "${FIRST}" | grep -q '"solvable":true' || {
	echo "smoke: unexpected solvable reply: ${FIRST}" >&2
	exit 1
}
grep -Eiq '^Server-Timing: compute;dur=[0-9]+\.[0-9]{3}' "${WORK}/firsthdr" || {
	echo "smoke: the miss carries no Server-Timing compute metric:" >&2
	cat "${WORK}/firsthdr" >&2
	exit 1
}
SECOND="$(curl -fsS -D "${WORK}/secondhdr" -X POST -d "${BODY}" "${BASE}/v1/solvable")"
echo "${SECOND}" | grep -q '"cached":true' || {
	echo "smoke: repeat query was not cached: ${SECOND}" >&2
	exit 1
}
if grep -iq '^Server-Timing:' "${WORK}/secondhdr"; then
	echo "smoke: the cache hit carries a Server-Timing header:" >&2
	cat "${WORK}/secondhdr" >&2
	exit 1
fi
if echo "${FIRST}${SECOND}" | grep -Eq '"(shared|elapsedMs)"'; then
	echo "smoke: a verdict body carries per-request timing: ${FIRST} ${SECOND}" >&2
	exit 1
fi
echo "${SECOND}" | grep -Eq '"configs":[1-9]' || {
	echo "smoke: cached reply lost the verdict's configs: ${SECOND}" >&2
	exit 1
}
if echo "${SECOND}" | grep -q '"engine"'; then
	echo "smoke: reply carries a per-response engine block: ${SECOND}" >&2
	exit 1
fi

# /v1/stats must aggregate the engine work: exactly one engine run so
# far (the second query was a cache hit), with non-zero configs.
STATS="$(curl -fsS "${BASE}/v1/stats")"
echo "${STATS}" | grep -Eq '"engineRuns":[1-9]' || {
	echo "smoke: /v1/stats reports no engine runs: ${STATS}" >&2
	exit 1
}
echo "${STATS}" | grep -Eq '"configsExplored":[1-9]' || {
	echo "smoke: /v1/stats reports no configs explored: ${STATS}" >&2
	exit 1
}
echo "${STATS}" | grep -q '"cacheHits":1' || {
	echo "smoke: /v1/stats did not count the cache hit: ${STATS}" >&2
	exit 1
}
if [ "${BACKEND}" = "enumerate" ]; then
	echo "${STATS}" | grep -q '"symbolicRounds":0' || {
		echo "smoke: /v1/stats reports symbolic rounds on the enumerate backend: ${STATS}" >&2
		exit 1
	}
else
	echo "${STATS}" | grep -Eq '"symbolicRounds":[1-9]' || {
		echo "smoke: /v1/stats missing symbolic round gauge: ${STATS}" >&2
		exit 1
	}
	echo "${STATS}" | grep -Eq '"intervalsPeak":[1-9]' || {
		echo "smoke: /v1/stats missing interval peak gauge: ${STATS}" >&2
		exit 1
	}
fi

# One network question Theorem V.1 decides (path-4 has c(G) = 1 = f):
# unsolvable on every backend. The default backend answers it without
# the engine and counts it in theoremDecided; a forced backend runs the
# engine once for it.
runs() { echo "$1" | sed -n 's/.*"engineRuns":\([0-9]*\).*/\1/p'; }
NET="$(curl -fsS -X POST -d '{"graph":"path","n":4,"f":1,"rounds":2}' "${BASE}/v1/net/solvable")"
echo "${NET}" | grep -q '"solvable":false' || {
	echo "smoke: path-4 f=1 is not unsolvable: ${NET}" >&2
	exit 1
}
NSTATS="$(curl -fsS "${BASE}/v1/stats")"
if [ "${BACKEND}" = "auto" ]; then
	WANT_DECIDED=1 WANT_RUNS="$(runs "${STATS}")"
else
	WANT_DECIDED=0 WANT_RUNS="$(($(runs "${STATS}") + 1))"
fi
echo "${NSTATS}" | grep -q "\"theoremDecided\":${WANT_DECIDED}[,}]" || {
	echo "smoke: /v1/stats theoremDecided is not ${WANT_DECIDED} on the ${BACKEND} backend: ${NSTATS}" >&2
	exit 1
}
[ "$(runs "${NSTATS}")" = "${WANT_RUNS}" ] || {
	echo "smoke: engineRuns went from $(runs "${STATS}") to $(runs "${NSTATS}"), want ${WANT_RUNS} on the ${BACKEND} backend" >&2
	exit 1
}

# One node batch: the query answered above, a new one, and one whose
# horizon is out of range. The lines come in item order as 200/200/400,
# the first verdict is a cache hit, and the breaker, which only an
# engine run can settle, is still closed.
NBATCH="$(curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"items\":[${BODY},{\"scheme\":\"S1\",\"horizon\":3},{\"scheme\":\"S1\",\"horizon\":99}]}" \
	"${BASE}/v1/solve/batch")"
[ "$(echo "${NBATCH}" | grep -o '"index":[0-9]*,"status":[0-9]*' | tr '\n' ' ')" = \
	'"index":0,"status":200 "index":1,"status":200 "index":2,"status":400 ' ] || {
	echo "smoke: node batch did not answer 200/200/400 in item order:" >&2
	echo "${NBATCH}" >&2
	exit 1
}
echo "${NBATCH}" | head -n 1 | grep -q '"cached":true' || {
	echo "smoke: node batch item 0 should have come from cache: ${NBATCH}" >&2
	exit 1
}
VARZ="$(curl -fsS "${BASE}/varz")"
echo "${VARZ}" | grep -q '"breakerState":"closed"' || {
	echo "smoke: breaker not closed after the node batch: ${VARZ}" >&2
	exit 1
}

# SIGTERM must drain and exit 0 within the drain budget.
kill -TERM "${SERVED_PID}"
STATUS=0
wait "${SERVED_PID}" || STATUS=$?
SERVED_PID=""
[ "${STATUS}" -eq 0 ] || {
	echo "smoke: capserved exited ${STATUS} on SIGTERM, want 0" >&2
	cat "${WORK}/stderr.log" >&2
	exit 1
}
grep -q "capserved: clean shutdown" "${WORK}/stdout.log" || {
	echo "smoke: no clean-shutdown line:" >&2
	cat "${WORK}/stdout.log" >&2
	exit 1
}
grep -q "capserved: drained" "${WORK}/stderr.log" || {
	echo "smoke: no drain log line:" >&2
	cat "${WORK}/stderr.log" >&2
	exit 1
}

# --- 3-node coordinator smoke (SMOKE_CLUSTER=0 skips it) --------------
# Three backends fronted by `capserved -coordinator`: a keyed query is
# forwarded once and then served from the coordinator's cache, one
# backend is SIGKILLed mid-run and the fleet must keep answering
# (failover/hedge to the next ring replica), and the coordinator must
# still drain cleanly on SIGTERM.
if [ "${SMOKE_CLUSTER:-1}" = "1" ]; then
	BK_BASES=""
	for n in 1 2 3; do
		"${WORK}/capserved" -addr 127.0.0.1:0 -drain 5s -backend "${BACKEND}" \
			>"${WORK}/bk${n}.out" 2>"${WORK}/bk${n}.err" &
		eval "BK${n}_PID=$!"
		CLUSTER_PIDS="${CLUSTER_PIDS} $!"
	done
	for n in 1 2 3; do
		ADDR=""
		i=0
		while [ $i -lt 100 ]; do
			ADDR="$(sed -n 's/^capserved: listening on \(http:\/\/[^ ]*\)$/\1/p' "${WORK}/bk${n}.err" | head -n 1)"
			[ -n "${ADDR}" ] && break
			i=$((i + 1))
			sleep 0.1
		done
		[ -n "${ADDR}" ] || {
			echo "smoke: cluster backend ${n} never logged its address" >&2
			cat "${WORK}/bk${n}.err" >&2
			exit 1
		}
		BK_BASES="${BK_BASES},${ADDR}"
	done
	BK_BASES="${BK_BASES#,}"

	"${WORK}/capserved" -coordinator -backends "${BK_BASES}" -addr 127.0.0.1:0 \
		-replicas 2 -hedge-delay 50ms -breaker-trip 3 -breaker-cooldown 2s -drain 5s \
		>"${WORK}/coord.out" 2>"${WORK}/coord.err" &
	COORD_PID=$!
	CLUSTER_PIDS="${CLUSTER_PIDS} ${COORD_PID}"
	CBASE=""
	i=0
	while [ $i -lt 100 ]; do
		CBASE="$(sed -n 's/^coordinator: listening on \(http:\/\/[^ ]*\) .*$/\1/p' "${WORK}/coord.err" | head -n 1)"
		[ -n "${CBASE}" ] && break
		if ! kill -0 "${COORD_PID}" 2>/dev/null; then
			echo "smoke: coordinator died before binding:" >&2
			cat "${WORK}/coord.err" >&2
			exit 1
		fi
		i=$((i + 1))
		sleep 0.1
	done
	[ -n "${CBASE}" ] || {
		echo "smoke: coordinator never logged its address" >&2
		cat "${WORK}/coord.err" >&2
		exit 1
	}
	i=0
	until curl -fsS -o /dev/null "${CBASE}/readyz"; do
		i=$((i + 1))
		[ $i -ge 50 ] && { echo "smoke: coordinator /readyz never turned ready" >&2; exit 1; }
		sleep 0.1
	done

	# A keyed query is forwarded to a shard, then the repeat must come
	# out of the coordinator's own cache (X-Cluster-Cache: hit).
	CBODY='{"scheme":"S1","horizon":3}'
	CR1="$(curl -fsS -X POST -d "${CBODY}" "${CBASE}/v1/solvable")"
	echo "${CR1}" | grep -q '"solvable":true' || {
		echo "smoke: coordinator solvable reply wrong: ${CR1}" >&2
		exit 1
	}
	curl -fsS -D "${WORK}/chdr" -o /dev/null -X POST -d "${CBODY}" "${CBASE}/v1/solvable"
	grep -qi '^x-cluster-cache: hit' "${WORK}/chdr" || {
		echo "smoke: coordinator repeat was not a cache hit:" >&2
		cat "${WORK}/chdr" >&2
		exit 1
	}

	# --- batch leg: mixed cached/uncached through the coordinator -----
	# Item 0 repeats CBODY (already in the coordinator cache); items 1-2
	# compile to fresh automata, so they are misses the coordinator must
	# fan out to their ring shards. Every JSON-lines reply must be a
	# status-200 verdict, and each verdict must agree with the same query
	# asked as a single /v1/solvable call (differential check).
	BB0="${CBODY}"
	BB1='{"scheme":"S2","minus":["wwbb(.)"],"horizon":4}'
	BB2='{"scheme":"S2","minus":["bbww(.)"],"horizon":4}'
	BATCH="$(curl -fsS -X POST -H 'Content-Type: application/json' \
		-d "{\"items\":[${BB0},${BB1},${BB2}]}" "${CBASE}/v1/solve/batch")"
	[ "$(echo "${BATCH}" | grep -c '"status":200')" -eq 3 ] || {
		echo "smoke: batch did not return 3 ok lines:" >&2
		echo "${BATCH}" >&2
		exit 1
	}
	for i in 0 1 2; do
		eval "Q=\${BB${i}}"
		SINGLE="$(curl -fsS -X POST -d "${Q}" "${CBASE}/v1/solvable" | tr -d ' \n')"
		WANT="$(echo "${SINGLE}" | sed -n 's/.*"solvable":\(true\|false\).*/\1/p')"
		[ -n "${WANT}" ] || {
			echo "smoke: single-item reply for batch item ${i} had no verdict: ${SINGLE}" >&2
			exit 1
		}
		echo "${BATCH}" | grep "\"index\":${i}," | tr -d ' ' | grep -q "\"solvable\":${WANT}" || {
			echo "smoke: batch item ${i} disagrees with the single-item verdict (want solvable=${WANT}):" >&2
			echo "${BATCH}" | grep "\"index\":${i}," >&2
			exit 1
		}
	done
	# The cached item must be marked as a cluster-cache hit in its line.
	echo "${BATCH}" | grep '"index":0,' | grep -q '"cached":true' || {
		echo "smoke: batch item 0 should have come from cache:" >&2
		echo "${BATCH}" | grep '"index":0,' >&2
		exit 1
	}

	# --- one answer per campaign and per index ------------------------
	# The coordinator answers a chaos campaign through one backend and
	# index itself, so both replies must be a lone backend's: campaign
	# reports equal byte for byte, a frame when frames are asked for,
	# and an equal index reply.
	BK1="${BK_BASES%%,*}"
	CHAOS='{"scheme":"S1","executions":20,"seed":7}'
	CC="$(curl -fsS -X POST -d "${CHAOS}" "${CBASE}/v1/chaos")"
	NC="$(curl -fsS -X POST -d "${CHAOS}" "${BK1}/v1/chaos")"
	[ -n "${CC}" ] && [ "${CC}" = "${NC}" ] || {
		echo "smoke: coordinator campaign differs from the backend's:" >&2
		echo "coordinator: ${CC}" >&2
		echo "backend:     ${NC}" >&2
		exit 1
	}
	curl -fsS -D "${WORK}/chaoshdr" -o /dev/null -H 'Accept: application/x-capverdict' \
		-X POST -d "${CHAOS}" "${CBASE}/v1/chaos"
	tr -d '\r' <"${WORK}/chaoshdr" | grep -qix 'content-type: application/x-capverdict' || {
		echo "smoke: coordinator campaign did not answer a frame when asked:" >&2
		cat "${WORK}/chaoshdr" >&2
		exit 1
	}
	CI="$(curl -fsS -X POST -d '{"word":"wb."}' "${CBASE}/v1/index")"
	NI="$(curl -fsS -X POST -d '{"word":"wb."}' "${BK1}/v1/index")"
	[ -n "${CI}" ] && [ "${CI}" = "${NI}" ] || {
		echo "smoke: coordinator index reply ${CI} differs from the backend's ${NI}" >&2
		exit 1
	}

	# Kill one backend outright (no drain) and keep querying: each of
	# the 12 bodies compiles to a distinct automaton, so every one is a
	# cache miss that must be routed — keys whose primary shard is the
	# dead backend have to fail over to the ring successor.
	eval "kill -9 \${BK2_PID}"
	for word in w b ww wb bw bb www wwb wbw wbb bww bwb; do
		CR="$(curl -fsS -X POST -d "{\"scheme\":\"S2\",\"minus\":[\"${word}(.)\"],\"horizon\":4}" "${CBASE}/v1/solvable")" || {
			echo "smoke: cluster query minus=${word} failed after backend kill" >&2
			curl -s "${CBASE}/v1/stats" >&2 || true
			exit 1
		}
		echo "${CR}" | grep -q '"solvable":' || {
			echo "smoke: cluster query minus=${word} returned no verdict: ${CR}" >&2
			exit 1
		}
	done
	CSTATS="$(curl -fsS "${CBASE}/v1/stats")"
	echo "${CSTATS}" | grep -Eq '"(hedges|failovers)":[1-9]' || {
		echo "smoke: no hedges or failovers after killing a backend: ${CSTATS}" >&2
		exit 1
	}

	# --- membership churn under the admin API -------------------------
	# The prober (on by default, 1s interval) must notice the SIGKILLed
	# backend and eject it from the ring.
	i=0
	until curl -fsS "${CBASE}/v1/cluster/members" | grep -q '"state":"ejected"'; do
		i=$((i + 1))
		[ $i -ge 100 ] && {
			echo "smoke: prober never ejected the killed backend:" >&2
			curl -s "${CBASE}/v1/cluster/members" >&2 || true
			exit 1
		}
		sleep 0.1
	done

	# Remove a *live* backend via the admin API, keep querying (every
	# body below is a fresh automaton — a cache miss that must route),
	# then re-add it. No reply may be a 5xx at any point (curl -f fails
	# the script on any HTTP error).
	BK3_BASE="${BK_BASES##*,}"
	curl -fsS -G -X DELETE --data-urlencode "backend=${BK3_BASE}" \
		-o "${WORK}/members.json" "${CBASE}/v1/cluster/members"
	grep -q "${BK3_BASE}" "${WORK}/members.json" && {
		echo "smoke: removed backend still listed:" >&2
		cat "${WORK}/members.json" >&2
		exit 1
	}
	for word in bbw bbb wwww wwwb; do
		CR="$(curl -fsS -X POST -d "{\"scheme\":\"S2\",\"minus\":[\"${word}(.)\"],\"horizon\":4}" "${CBASE}/v1/solvable")" || {
			echo "smoke: cluster query minus=${word} failed after member removal" >&2
			exit 1
		}
		echo "${CR}" | grep -q '"solvable":' || {
			echo "smoke: cluster query minus=${word} returned no verdict: ${CR}" >&2
			exit 1
		}
	done
	curl -fsS -X POST -d "{\"backend\":\"${BK3_BASE}\"}" \
		-o "${WORK}/members.json" "${CBASE}/v1/cluster/members"
	grep -q "${BK3_BASE}" "${WORK}/members.json" || {
		echo "smoke: re-added backend missing from members:" >&2
		cat "${WORK}/members.json" >&2
		exit 1
	}
	for word in wbbw wbbb bwww bwwb; do
		CR="$(curl -fsS -X POST -d "{\"scheme\":\"S2\",\"minus\":[\"${word}(.)\"],\"horizon\":4}" "${CBASE}/v1/solvable")" || {
			echo "smoke: cluster query minus=${word} failed after member re-add" >&2
			exit 1
		}
		echo "${CR}" | grep -q '"solvable":' || {
			echo "smoke: cluster query minus=${word} returned no verdict: ${CR}" >&2
			exit 1
		}
	done
	# The epoch must have advanced: boot (1) + eject + leave + join >= 4.
	curl -fsS "${CBASE}/v1/cluster/members" | grep -Eq '"epoch":[4-9]' || {
		echo "smoke: membership epoch did not advance through churn:" >&2
		curl -s "${CBASE}/v1/cluster/members" >&2 || true
		exit 1
	}

	# The coordinator must drain cleanly even with a dead shard.
	kill -TERM "${COORD_PID}"
	CSTATUS=0
	wait "${COORD_PID}" || CSTATUS=$?
	[ "${CSTATUS}" -eq 0 ] || {
		echo "smoke: coordinator exited ${CSTATUS} on SIGTERM, want 0" >&2
		cat "${WORK}/coord.err" >&2
		exit 1
	}
	grep -q "capserved: clean shutdown" "${WORK}/coord.out" || {
		echo "smoke: coordinator missing clean-shutdown line:" >&2
		cat "${WORK}/coord.out" >&2
		exit 1
	}
	grep -q "coordinator: drained" "${WORK}/coord.err" || {
		echo "smoke: coordinator missing drain log line:" >&2
		cat "${WORK}/coord.err" >&2
		exit 1
	}
	echo "smoke_capserved.sh: cluster OK (${CBASE} over ${BK_BASES})"
fi

echo "smoke_capserved.sh: OK (${BASE})"
