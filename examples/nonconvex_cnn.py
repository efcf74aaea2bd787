"""Non-convex federated task: the paper's CNN on the MNIST-like dataset.

A reduced-scale version of the Fig. 3 experiment (fewer devices and a
channel-scaled CNN so it runs in about a minute on a laptop): FedAvg vs
FedProxVR(SVRG) on pathologically non-IID image shards.

Run:  python examples/nonconvex_cnn.py
"""

from repro import (
    FederatedRunConfig,
    make_digits,
    make_paper_cnn_model,
    run_federated,
)


def main() -> None:
    dataset = make_digits(
        num_devices=5, num_samples=800, labels_per_device=2,
        min_size=60, max_size=250, seed=0,
    )
    print(dataset.summary())

    def model_factory():
        # channel_scale=0.25 -> 8/16-channel convs; same architecture
        # and code path as the paper's 32/64 CNN at 1/16 the FLOPs.
        return make_paper_cnn_model(
            image_shape=(1, 28, 28), num_classes=10, channel_scale=0.25, seed=0
        )

    for algorithm, mu in [("fedavg", 0.0), ("fedproxvr-svrg", 0.01)]:
        config = FederatedRunConfig(
            algorithm=algorithm,
            num_rounds=10,
            num_local_steps=10,
            beta=10.0,
            mu=mu,
            batch_size=64,
            seed=4,
            eval_every=2,
            executor="thread",  # clients run concurrently (one model per worker)
            max_workers=5,
        )
        history, _ = run_federated(dataset, model_factory, config)
        print(f"\n{algorithm}:")
        for record in history.records:
            print(
                f"  round {record.round_index:2d}  loss {record.train_loss:.4f}  "
                f"test-acc {record.test_accuracy:.4f}"
            )


if __name__ == "__main__":
    main()
