"""The simulated clock and why federating saves wall time.

Each round costs N_e times the slowest client that trained fresh that
round, so the static total is N_r * N_e * max(t_i).  Against a
single-machine baseline that needs 138.6 s per epoch over the pooled
data, three clients cut the clock by ~71% and ten clients by ~92%.
"""

from fedsim import simulated_time, static_sim_time

THREE = (23.1, 40.1, 24.0)
TEN = (10.1, 9.7, 6.0, 7.9, 9.0, 9.0, 8.0, 11.0, 9.8, 10.1)
CENTRALIZED_EPOCH = 138.6


def main():
    n_rounds, n_epochs = 10, 1
    centralized = n_rounds * n_epochs * CENTRALIZED_EPOCH
    print(f"schedule: {n_rounds} rounds x {n_epochs} epoch(s)")
    print(f"centralized baseline: {centralized:.1f}s\n")

    for name, times in (("3 clients", THREE), ("10 clients", TEN)):
        total = static_sim_time(n_rounds, n_epochs, times)
        saved = 100.0 * (1.0 - total / centralized)
        print(f"{name}: slowest epoch {max(times)}s -> total {total}s "
              f"({saved:.2f}% faster than centralized)")

    # swapping rounds for epochs keeps the product, and therefore the clock
    print(f"\n1 round x 10 epochs, 3 clients: {static_sim_time(1, 10, THREE)}s")

    # a mid-run departure of the slowest client shortens every later round
    per_round = [(23.1, 40.1, 24.0)] * 5 + [(23.1, 24.0)] * 5
    dynamic = simulated_time(n_epochs, per_round)
    print(f"slowest client leaves after round 5: {dynamic}s instead of "
          f"{static_sim_time(10, 1, THREE)}s")


if __name__ == "__main__":
    main()
