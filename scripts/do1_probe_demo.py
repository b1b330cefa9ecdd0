#!/usr/bin/env python3
"""Estimate depth-of-one from value probes alone and check the brackets.

Draws random alternating circuits that have at least one hot gate, then runs
the probe-based extraction twice per circuit: once against the exact
optimal-value oracle and once against a multiplicatively noisy one.  The
extraction never evaluates the circuit — it only compares state values of
forced-choice duels against reference chains — yet the returned power-of-two
estimate d' must satisfy

    exact oracle:            d' <= d1 < 2 * d'
    noise uniform in [e, 1]: e * d' <= d1 <= (2 / e) * d'

where d1 is the true depth-of-one.  The table below reports both estimates,
the probe counts, and the bracket checks.
"""

from __future__ import annotations

import argparse
import sys

from depthbench.do1 import (
    CountingOracle,
    NoisyOracle,
    bracket,
    depth_of_one,
    extract_depth_of_one,
    optimal_value,
    random_alt_config,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32, 64, 128],
                        help="logic-gate counts to sweep (default: 8 16 32 64 128)")
    parser.add_argument("--per-size", type=int, default=5,
                        help="circuits drawn per size (default: 5)")
    parser.add_argument("--inputs", type=int, default=6, help="input bits per circuit")
    parser.add_argument("--eps", type=float, default=0.5,
                        help="noise floor for the noisy oracle (default: 0.5)")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    args = parser.parse_args(argv)

    labels = ("gates", "d1", "exact d'", "probes", "bracket", "noisy d'", "bracket")
    widths = (5, 4, 8, 6, 8, 8, 8)
    header = " ".join(f"{label:>{w}}" for label, w in zip(labels, widths))
    print(header)
    print("-" * len(header))
    violations = 0
    for size in args.sizes:
        for i in range(args.per_size):
            cfg = random_alt_config(args.seed + 1000 * size + i, args.inputs, size,
                                    require_hot=True)
            d1 = depth_of_one(cfg)

            counting = CountingOracle(optimal_value)
            exact = extract_depth_of_one(cfg, counting)
            exact_ok, _ = bracket(exact, d1, 1.0)

            noisy_fn = NoisyOracle(optimal_value, args.eps, seed=args.seed + i)
            noisy = extract_depth_of_one(cfg, noisy_fn)
            noisy_ok, _ = bracket(noisy, d1, args.eps)

            violations += (not exact_ok) + (not noisy_ok)
            print(f"{size:>5} {d1:>4} {exact:>8} {counting.calls:>6} "
                  f"{'ok' if exact_ok else 'FAIL':>8} {noisy:>8} "
                  f"{'ok' if noisy_ok else 'FAIL':>8}")
    print()
    if violations:
        print(f"{violations} bracket violations", file=sys.stderr)
        return 1
    print("all brackets hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
