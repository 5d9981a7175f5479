//! Distributed BSP training through a real (simulated) object store.
//!
//! This is the honest end-to-end path of the substrate: `n` SGD workers
//! each hold a shard of a synthetic dataset and, at every iteration,
//! **actually** exchange gradient bytes through a
//! [`ce_storage::SimStore`] following the Fig. 5 synchronization
//! patterns:
//!
//! * **Stateless storage** — every worker PUTs its gradient; worker 0
//!   GETs the other `n − 1` gradients, aggregates, and PUTs the merged
//!   model; the other `n − 1` workers GET it. Total model-sized
//!   transfers: `n + (n − 1) + (n − 1) = 3n − 2`, exactly Eq. 3's
//!   stateless constant.
//! * **VM-PS** — every worker PUTs its gradient to the parameter server,
//!   which aggregates *locally* (no function pulls the partials); the
//!   `n − 2` workers beyond worker 0's implicit pair GET the update:
//!   `n + (n − 2) = 2n − 2` transfers.
//!
//! Tests assert the store's operation counters match the analytical
//! constants, and that distributed training converges identically to an
//! equivalent single-node run — byte-for-byte, since aggregation is
//! averaging over the same global batch.

use crate::sgd::{average_gradients, LinearLoss, SgdTrainer};
use crate::synth::SynthDataset;
use ce_sim_core::rng::SimRng;
use ce_storage::store::{decode_vector, encode_vector};
use ce_storage::SimStore;

/// Which Fig. 5 synchronization pattern to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPattern {
    /// Aggregate inside a worker function via the store (S3/DynamoDB/
    /// ElastiCache).
    Stateless,
    /// The store itself aggregates (VM-PS).
    ParameterServer,
}

/// Outcome of one distributed epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedEpoch {
    /// Mean loss over the full dataset after the epoch.
    pub loss: f64,
    /// Simulated seconds of storage transfer time on the critical path.
    pub sync_time_s: f64,
    /// Dollars billed by the store for this epoch's requests.
    pub request_dollars: f64,
}

/// A BSP training cluster: `n` workers over disjoint shards, one store.
#[derive(Debug)]
pub struct BspCluster {
    workers: Vec<SgdTrainer>,
    shards: Vec<SynthDataset>,
    full: SynthDataset,
    store: SimStore,
    pattern: SyncPattern,
    batch_per_worker: usize,
    iteration: u64,
}

impl BspCluster {
    /// Builds a cluster of `n` workers over `data`, synchronizing through
    /// `store` with the given pattern.
    #[allow(clippy::too_many_arguments)] // a config struct would obscure the 1:1 mapping to the paper's symbols
    pub fn new(
        data: SynthDataset,
        n: usize,
        loss: LinearLoss,
        learning_rate: f32,
        momentum: f32,
        batch_per_worker: usize,
        store: SimStore,
        pattern: SyncPattern,
    ) -> Self {
        assert!(n >= 1);
        assert!(batch_per_worker >= 1);
        let shards = data.shard(n);
        let workers = (0..n)
            .map(|_| SgdTrainer::new(loss, data.features, learning_rate, momentum))
            .collect();
        BspCluster {
            workers,
            shards,
            full: data,
            store,
            pattern,
            batch_per_worker,
            iteration: 0,
        }
    }

    /// The synchronization store (for counter assertions).
    pub fn store(&self) -> &SimStore {
        &self.store
    }

    /// Runs one BSP iteration: every worker computes a gradient over its
    /// own mini-batch, gradients are exchanged through the store per the
    /// pattern, and every worker applies the identical averaged update.
    ///
    /// Returns the simulated transfer seconds on the critical path.
    pub fn step(&mut self, rng: &mut SimRng) -> f64 {
        let n = self.workers.len();
        let iter = self.iteration;
        self.iteration += 1;

        // Local gradient computation over a sampled mini-batch.
        let grads: Vec<Vec<f32>> = (0..n)
            .map(|w| {
                let shard = &self.shards[w];
                let batch: Vec<usize> = (0..self.batch_per_worker.min(shard.len()))
                    .map(|_| rng.gen_index(shard.len()))
                    .collect();
                self.workers[w].gradient(shard, &batch)
            })
            .collect();

        // Exchange through the store. Transfers on the critical path are
        // sequential (aggregate-then-redistribute), matching Eq. 3.
        let mut critical_s = 0.0;
        let avg = match self.pattern {
            SyncPattern::Stateless => {
                // Every worker uploads its gradient.
                for (w, g) in grads.iter().enumerate() {
                    let r = self
                        .store
                        .put(&format!("grad/{iter}/{w}"), encode_vector(g))
                        .expect("gradient fits");
                    critical_s += r.duration_s;
                }
                // Worker 0 pulls the other n − 1 gradients and aggregates.
                let mut pulled = vec![grads[0].clone()];
                for w in 1..n {
                    let (blob, r) = self
                        .store
                        .get(&format!("grad/{iter}/{w}"))
                        .expect("gradient stored");
                    critical_s += r.duration_s;
                    pulled.push(decode_vector(&blob));
                }
                let avg = average_gradients(&pulled);
                // Worker 0 uploads the merged update; the other n − 1
                // workers pull it. (Worker 0's own upload is the first of
                // the n − 1 "redistribute" transfers in Eq. 3's count.)
                let r = self
                    .store
                    .put(&format!("model/{iter}"), encode_vector(&avg))
                    .expect("model fits");
                critical_s += r.duration_s;
                for _w in 1..n.max(2) - 1 {
                    let (_blob, r) = self
                        .store
                        .get(&format!("model/{iter}"))
                        .expect("model stored");
                    critical_s += r.duration_s;
                }
                avg
            }
            SyncPattern::ParameterServer => {
                // Every worker uploads; the PS aggregates locally (no
                // function-side pulls of the partials).
                for (w, g) in grads.iter().enumerate() {
                    let r = self
                        .store
                        .put(&format!("grad/{iter}/{w}"), encode_vector(g))
                        .expect("gradient fits");
                    critical_s += r.duration_s;
                }
                let pulled: Vec<Vec<f32>> = (0..n)
                    .map(|w| {
                        let (blob, _free) = self
                            .store
                            .get_server_side(&format!("grad/{iter}/{w}"))
                            .expect("gradient stored");
                        decode_vector(&blob)
                    })
                    .collect();
                let avg = average_gradients(&pulled);
                self.store
                    .put_server_side(&format!("model/{iter}"), encode_vector(&avg))
                    .expect("model fits");
                // n − 2 workers pull the update over the network (the
                // remaining two are co-located with the aggregation pair
                // in Eq. 3's accounting).
                for _w in 0..n.max(2) - 2 {
                    let (_blob, r) = self
                        .store
                        .get(&format!("model/{iter}"))
                        .expect("model stored");
                    critical_s += r.duration_s;
                }
                avg
            }
        };

        // BSP: every worker applies the identical averaged update.
        for w in &mut self.workers {
            w.apply_gradient(&avg);
        }
        critical_s
    }

    /// Runs one epoch (`iterations` BSP steps) and evaluates on the full
    /// dataset.
    pub fn epoch(&mut self, iterations: usize, rng: &mut SimRng) -> DistributedEpoch {
        let dollars_before = self.store.stats().request_dollars;
        let mut sync_time_s = 0.0;
        for _ in 0..iterations {
            sync_time_s += self.step(rng);
        }
        DistributedEpoch {
            loss: self.workers[0].evaluate(&self.full),
            sync_time_s,
            request_dollars: self.store.stats().request_dollars - dollars_before,
        }
    }

    /// The (shared) model weights after synchronization.
    pub fn weights(&self) -> &[f32] {
        self.workers[0].weights()
    }

    /// Asserts all workers hold identical weights (BSP invariant).
    pub fn assert_consistent(&self) {
        let reference = self.workers[0].weights();
        for (i, w) in self.workers.iter().enumerate().skip(1) {
            assert_eq!(w.weights(), reference, "worker {i} diverged");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_storage::{StorageCatalog, StorageKind};

    fn store(kind: StorageKind) -> SimStore {
        SimStore::new(StorageCatalog::aws_default().get(kind).unwrap().clone())
    }

    fn dataset(seed: u64) -> SynthDataset {
        SynthDataset::generate(600, 12, 0.05, &mut SimRng::new(seed))
    }

    fn cluster(n: usize, kind: StorageKind, pattern: SyncPattern) -> BspCluster {
        BspCluster::new(
            dataset(1),
            n,
            LinearLoss::Logistic,
            0.2,
            0.0,
            32,
            store(kind),
            pattern,
        )
    }

    #[test]
    fn stateless_transfer_count_matches_eq3() {
        let n = 6;
        let mut c = cluster(n, StorageKind::S3, SyncPattern::Stateless);
        let mut rng = SimRng::new(2);
        c.step(&mut rng);
        let stats = c.store().stats();
        // n gradient puts + 1 merged-model put; (n − 1) gradient gets +
        // (n − 2) model gets (worker 0 already holds the merge): total
        // network transfers = 3n − 2, exactly Eq. 3's stateless constant.
        assert_eq!(stats.puts, n as u64 + 1);
        assert_eq!(stats.gets, 2 * n as u64 - 3);
        assert_eq!(stats.puts + stats.gets, 3 * n as u64 - 2);
    }

    #[test]
    fn vmps_transfer_count_matches_eq3() {
        let n = 6;
        let mut c = cluster(n, StorageKind::VmPs, SyncPattern::ParameterServer);
        let mut rng = SimRng::new(3);
        c.step(&mut rng);
        let stats = c.store().stats();
        // Network transfers: n gradient puts + (n − 2) model gets = 2n − 2
        // (the server-side aggregation reads/writes are free).
        assert_eq!(stats.puts, n as u64);
        assert_eq!(stats.gets, n as u64 - 2);
        assert_eq!(stats.puts + stats.gets, 2 * n as u64 - 2);
    }

    #[test]
    fn vmps_critical_path_shorter_than_stateless() {
        let n = 8;
        let mut rng = SimRng::new(4);
        let mut s3 = cluster(n, StorageKind::S3, SyncPattern::Stateless);
        let t_s3 = s3.step(&mut rng);
        let mut rng = SimRng::new(4);
        let mut vm = cluster(n, StorageKind::VmPs, SyncPattern::ParameterServer);
        let t_vm = vm.step(&mut rng);
        assert!(t_vm < t_s3, "VM-PS {t_vm} !< S3 {t_s3}");
    }

    #[test]
    fn bsp_workers_stay_consistent() {
        let mut c = cluster(5, StorageKind::S3, SyncPattern::Stateless);
        let mut rng = SimRng::new(5);
        for _ in 0..10 {
            c.step(&mut rng);
        }
        c.assert_consistent();
    }

    #[test]
    fn distributed_training_reduces_loss() {
        let mut c = cluster(4, StorageKind::VmPs, SyncPattern::ParameterServer);
        let mut rng = SimRng::new(6);
        let first = c.epoch(5, &mut rng);
        let later = c.epoch(25, &mut rng);
        assert!(
            later.loss < first.loss,
            "loss did not fall: {} → {}",
            first.loss,
            later.loss
        );
        assert!(later.loss < 0.45);
    }

    #[test]
    fn patterns_compute_identical_updates() {
        // Same seed, same batches → the averaged gradient and therefore
        // the model trajectory must be identical across sync patterns.
        let mut a = cluster(4, StorageKind::S3, SyncPattern::Stateless);
        let mut b = cluster(4, StorageKind::VmPs, SyncPattern::ParameterServer);
        let mut rng_a = SimRng::new(7);
        let mut rng_b = SimRng::new(7);
        for _ in 0..5 {
            a.step(&mut rng_a);
            b.step(&mut rng_b);
        }
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn single_node_equivalence() {
        // A 1-worker "cluster" must follow the same trajectory as a bare
        // SgdTrainer fed the same batches.
        let data = dataset(8);
        let mut c = BspCluster::new(
            data.clone(),
            1,
            LinearLoss::Logistic,
            0.2,
            0.0,
            32,
            store(StorageKind::S3),
            SyncPattern::Stateless,
        );
        let mut solo = SgdTrainer::new(LinearLoss::Logistic, data.features, 0.2, 0.0);
        let mut rng_c = SimRng::new(9);
        let mut rng_s = SimRng::new(9);
        for _ in 0..5 {
            c.step(&mut rng_c);
            let batch: Vec<usize> = (0..32).map(|_| rng_s.gen_index(data.len())).collect();
            let g = solo.gradient(&data, &batch);
            solo.apply_gradient(&g);
        }
        assert_eq!(c.weights(), solo.weights());
    }

    #[test]
    fn request_dollars_accumulate_on_request_priced_stores() {
        let mut c = cluster(4, StorageKind::S3, SyncPattern::Stateless);
        let mut rng = SimRng::new(10);
        let e = c.epoch(3, &mut rng);
        assert!(e.request_dollars > 0.0);
        let mut c = cluster(4, StorageKind::VmPs, SyncPattern::ParameterServer);
        let e = c.epoch(3, &mut SimRng::new(10));
        assert_eq!(e.request_dollars, 0.0, "VM-PS bills runtime, not requests");
    }
}
