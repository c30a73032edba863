#!/bin/sh
# metriclint: static lint for the /metrics namespace.
#
# Two rules, both enforced over the serving layer (safemon/serve), the
# daemon (cmd/), README.md, and the exposition golden file:
#
#   1. Naming, by metric type (read from the registration call): every
#      family is safemon_-prefixed; counters (Counter, CounterFunc) end
#      in _total; gauges (Gauge, GaugeFunc, GaugeCollector) must not end
#      in _total, which Prometheus reserves for counters, and may be
#      unitless; histograms end in _seconds or _bytes.
#   2. No phantom metrics: every safemon_* name mentioned anywhere —
#      tests, docs, the golden file — must correspond to a family a
#      registration call (Counter/Gauge/Histogram/CounterFunc/GaugeFunc/
#      GaugeCollector) actually creates, so documentation and dashboards
#      cannot drift from the registry. Histogram sample suffixes
#      (_bucket/_sum/_count) are folded back onto their family first.
#
# The generic safemon/obs package is out of scope: its tests exercise
# the registry with deliberately arbitrary names.
#
# Run via `make metriclint` (or `make ci`, which includes it).
set -eu
cd "$(dirname "$0")/.."

name_re='safemon_[a-z0-9_]+'

# Registration calls in code, one "<call> <family>" pair per line.
regs="$(grep -rhoE "\.(Counter|Gauge|Histogram|CounterFunc|GaugeFunc|GaugeCollector)\(\"$name_re\"" \
	--include='*.go' safemon/serve cmd | sed -E 's/^\.([A-Za-z]+)\("([a-z0-9_]+)"$/\1 \2/' | sort -u)"
registered="$(printf '%s\n' "$regs" | cut -d' ' -f2 | sort -u)"

if [ -z "$registered" ]; then
	echo "metriclint: found no metric registrations — the grep is broken" >&2
	exit 1
fi

bad=0

# Rule 1: each family's suffix matches the type its registration gives it.
printf '%s\n' "$regs" | awk '
	$1 ~ /^Counter/ && $2 !~ /_total$/ {
		printf "metriclint: counter %s must end in _total\n", $2; bad = 1
	}
	$1 ~ /^Gauge/ && $2 ~ /_total$/ {
		printf "metriclint: gauge %s must not end in _total (reserved for counters)\n", $2; bad = 1
	}
	$1 == "Histogram" && $2 !~ /_(seconds|bytes)$/ {
		printf "metriclint: histogram %s must end in _seconds or _bytes\n", $2; bad = 1
	}
	END { exit bad }
' >&2 || bad=1

# Rule 2: every mentioned name resolves to a registered family.
mentioned="$(grep -rhoE "$name_re" --include='*.go' safemon/serve cmd README.md \
	safemon/serve/testdata/metrics.golden 2>/dev/null |
	sed -E 's/_(bucket|sum|count)$//' | sort -u)"
for fam in $mentioned; do
	if ! printf '%s\n' "$registered" | grep -qxF "$fam"; then
		echo "metriclint: $fam is mentioned but never registered (typo, or register it)" >&2
		bad=1
	fi
done

if [ "$bad" -ne 0 ]; then
	exit 1
fi
echo "metriclint: $(printf '%s\n' "$registered" | wc -l | tr -d ' ') families ok"
