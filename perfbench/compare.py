"""Compare the metrics of two benchmark result records.

    python3 perfbench/compare.py BASE.json NEW.json

Both files are ``perfbench/out/result-*.json`` records of the same workload
and trace mode.  Records whose environments differ are refused (exit 2):
their bytes and timings are not comparable.  Otherwise each metric is printed
with both values and NEW/BASE.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    base, new = records
    for key in ("workload", "trace", "env"):
        if base.get(key) != new.get(key):
            print(f"refused: the records differ in {key!r}", file=sys.stderr)
            if key == "env":
                a, b = base.get("env") or {}, new.get("env") or {}
                for field in sorted(set(a) | set(b)):
                    if a.get(field) != b.get(field):
                        print(f"  {field}: {a.get(field)!r} vs {b.get(field)!r}", file=sys.stderr)
            return 2
    print(f"workload {base['workload']}  trace {base['trace']}  seeds {base['seed']} -> {new['seed']}")
    base_m, new_m = base["result"]["metrics"], new["result"]["metrics"]
    for name, m in base_m.items():
        b, n = m["value"], new_m[name]["value"]
        ratio = f"{n / b:.4f}" if b else "n/a"
        print(f"  {name:48s} {b:14.6g} {n:14.6g} {ratio:>8s} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
