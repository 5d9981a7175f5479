//! A real (in-memory) simulated object store.
//!
//! [`SimStore`] is the concrete synchronization medium the platform
//! simulator uses: workers **actually** put and get byte blobs (gradient
//! vectors, model parameters), and every operation returns the simulated
//! duration and billed cost derived from the service's [`StorageSpec`].
//! This keeps the substrate honest — aggregation in the real-SGD validation
//! path really happens through the store, byte for byte.

use std::collections::HashMap;

use bytes::Bytes;
use ce_obs::{Counter, Gauge, Registry};
use std::sync::Mutex;

use crate::service::StorageSpec;

/// Outcome of a storage operation: how long it took in simulated time and
/// what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpReceipt {
    /// Simulated seconds the operation took.
    pub duration_s: f64,
    /// Dollars billed for the operation (0 for runtime-priced services).
    pub dollars: f64,
}

/// Errors a storage operation can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The object exceeds the service's size limit (e.g. DynamoDB 400 KB).
    ObjectTooLarge {
        size_mb_x1000: u64,
        limit_mb_x1000: u64,
    },
    /// GET of a key that does not exist.
    NotFound(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::ObjectTooLarge {
                size_mb_x1000,
                limit_mb_x1000,
            } => write!(
                f,
                "object of {:.3} MB exceeds the service limit of {:.3} MB",
                *size_mb_x1000 as f64 / 1000.0,
                *limit_mb_x1000 as f64 / 1000.0
            ),
            StoreError::NotFound(key) => write!(f, "no object stored under key {key:?}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// In-memory object store simulating one external storage service.
///
/// The state sits behind a `Mutex`, so every operation takes `&self`.
/// No simulation shares a store across threads: its one user outside
/// tests is `ce_ml::distributed::BspCluster`, which
/// `examples/real_sgd_validation.rs` drives on one thread.
#[derive(Debug)]
pub struct SimStore {
    spec: StorageSpec,
    inner: Mutex<Inner>,
    obs: Option<StoreObs>,
}

/// Per-service metric handles (`storage.<service>.*`), held so the hot
/// path never does a name lookup.
#[derive(Debug, Clone)]
struct StoreObs {
    puts: Counter,
    gets: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    dollars: Gauge,
}

impl StoreObs {
    fn new(registry: &Registry, spec: &StorageSpec) -> Self {
        let prefix = format!("storage.{}", spec.kind).to_lowercase();
        StoreObs {
            puts: registry.counter(&format!("{prefix}.puts")),
            gets: registry.counter(&format!("{prefix}.gets")),
            bytes_in: registry.counter(&format!("{prefix}.bytes_in")),
            bytes_out: registry.counter(&format!("{prefix}.bytes_out")),
            dollars: registry.gauge(&format!("{prefix}.dollars")),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    objects: HashMap<String, Bytes>,
    put_count: u64,
    get_count: u64,
    bytes_in: u64,
    bytes_out: u64,
    dollars: f64,
}

/// Aggregate usage counters for assertions and cost accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreStats {
    /// Number of successful PUT operations.
    pub puts: u64,
    /// Number of successful GET operations.
    pub gets: u64,
    /// Total bytes written.
    pub bytes_in: u64,
    /// Total bytes read.
    pub bytes_out: u64,
    /// Total request dollars billed so far.
    pub request_dollars: f64,
}

impl SimStore {
    /// Creates a store backed by the given service description.
    pub fn new(spec: StorageSpec) -> Self {
        SimStore {
            spec,
            inner: Mutex::new(Inner::default()),
            obs: None,
        }
    }

    /// Creates a store that additionally reports per-service request,
    /// byte, and dollar metrics (`storage.<service>.*`) into `registry`.
    pub fn with_registry(spec: StorageSpec, registry: &Registry) -> Self {
        let obs = StoreObs::new(registry, &spec);
        SimStore {
            spec,
            inner: Mutex::new(Inner::default()),
            obs: Some(obs),
        }
    }

    /// The service this store simulates.
    pub fn spec(&self) -> &StorageSpec {
        &self.spec
    }

    /// Stores `value` under `key`, returning the simulated duration/cost.
    pub fn put(&self, key: &str, value: Bytes) -> Result<OpReceipt, StoreError> {
        let size_mb = value.len() as f64 / (1024.0 * 1024.0);
        if let Some(limit) = self.spec.max_object_mb {
            if size_mb > limit {
                return Err(StoreError::ObjectTooLarge {
                    size_mb_x1000: (size_mb * 1000.0) as u64,
                    limit_mb_x1000: (limit * 1000.0) as u64,
                });
            }
        }
        let duration_s = self.spec.transfer_time(size_mb);
        let dollars = self.spec.pricing.put_cost(size_mb);
        if let Some(obs) = &self.obs {
            obs.puts.inc();
            obs.bytes_in.add(value.len() as u64);
            obs.dollars.add(dollars);
        }
        let mut inner = self.inner.lock().expect("store lock");
        inner.bytes_in += value.len() as u64;
        inner.put_count += 1;
        inner.dollars += dollars;
        inner.objects.insert(key.to_owned(), value);
        Ok(OpReceipt {
            duration_s,
            dollars,
        })
    }

    /// Fetches the object under `key`, returning it with the receipt.
    pub fn get(&self, key: &str) -> Result<(Bytes, OpReceipt), StoreError> {
        let mut inner = self.inner.lock().expect("store lock");
        let value = inner
            .objects
            .get(key)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(key.to_owned()))?;
        let size_mb = value.len() as f64 / (1024.0 * 1024.0);
        let duration_s = self.spec.transfer_time(size_mb);
        let dollars = self.spec.pricing.get_cost(size_mb);
        inner.bytes_out += value.len() as u64;
        inner.get_count += 1;
        inner.dollars += dollars;
        drop(inner);
        if let Some(obs) = &self.obs {
            obs.gets.inc();
            obs.bytes_out.add(value.len() as u64);
            obs.dollars.add(dollars);
        }
        Ok((
            value,
            OpReceipt {
                duration_s,
                dollars,
            },
        ))
    }

    /// Server-side GET: reads an object *inside* the storage node, with
    /// no network transfer and no request billing. Only meaningful for
    /// services that can aggregate locally (VM-PS); modelling code uses
    /// it for the parameter server's own reads during aggregation.
    ///
    /// # Panics
    /// Panics if the service cannot aggregate locally.
    pub fn get_server_side(&self, key: &str) -> Result<(Bytes, OpReceipt), StoreError> {
        assert!(
            self.spec.aggregates_locally,
            "{} cannot execute server-side operations",
            self.spec.kind
        );
        let inner = self.inner.lock().expect("store lock");
        let value = inner
            .objects
            .get(key)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(key.to_owned()))?;
        Ok((
            value,
            OpReceipt {
                duration_s: 0.0,
                dollars: 0.0,
            },
        ))
    }

    /// Server-side PUT: the aggregation counterpart of
    /// [`Self::get_server_side`].
    ///
    /// # Panics
    /// Panics if the service cannot aggregate locally.
    pub fn put_server_side(&self, key: &str, value: Bytes) -> Result<OpReceipt, StoreError> {
        assert!(
            self.spec.aggregates_locally,
            "{} cannot execute server-side operations",
            self.spec.kind
        );
        let mut inner = self.inner.lock().expect("store lock");
        inner.objects.insert(key.to_owned(), value);
        Ok(OpReceipt {
            duration_s: 0.0,
            dollars: 0.0,
        })
    }

    /// Whether an object exists under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.inner
            .lock()
            .expect("store lock")
            .objects
            .contains_key(key)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock").objects.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Usage counters accumulated since creation.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock");
        StoreStats {
            puts: inner.put_count,
            gets: inner.get_count,
            bytes_in: inner.bytes_in,
            bytes_out: inner.bytes_out,
            request_dollars: inner.dollars,
        }
    }
}

/// Serializes a gradient/model vector of `f32` into bytes for the store.
pub fn encode_vector(values: &[f32]) -> Bytes {
    let mut buf = Vec::with_capacity(values.len() * 4);
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(buf)
}

/// Deserializes a vector previously encoded with [`encode_vector`].
///
/// # Panics
/// Panics if the byte length is not a multiple of 4.
pub fn decode_vector(bytes: &Bytes) -> Vec<f32> {
    assert!(bytes.len().is_multiple_of(4), "corrupt vector blob");
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::StorageCatalog;
    use crate::service::StorageKind;

    fn store(kind: StorageKind) -> SimStore {
        SimStore::new(StorageCatalog::aws_default().get(kind).unwrap().clone())
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store(StorageKind::S3);
        let blob = Bytes::from(vec![1u8, 2, 3, 4]);
        let put = s.put("k", blob.clone()).unwrap();
        assert!(put.duration_s > 0.0);
        let (got, receipt) = s.get("k").unwrap();
        assert_eq!(got, blob);
        assert!(receipt.duration_s > 0.0);
        assert!(s.contains("k"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn get_missing_key_errors() {
        let s = store(StorageKind::S3);
        match s.get("missing") {
            Err(StoreError::NotFound(k)) => assert_eq!(k, "missing"),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn dynamodb_rejects_oversized_objects() {
        let s = store(StorageKind::DynamoDb);
        // 1 MB > 400 KB limit.
        let blob = Bytes::from(vec![0u8; 1024 * 1024]);
        assert!(matches!(
            s.put("model", blob),
            Err(StoreError::ObjectTooLarge { .. })
        ));
        // Small object is fine.
        let small = Bytes::from(vec![0u8; 1024]);
        assert!(s.put("model", small).is_ok());
    }

    #[test]
    fn stats_track_operations() {
        let s = store(StorageKind::S3);
        s.put("a", Bytes::from(vec![0u8; 100])).unwrap();
        s.put("b", Bytes::from(vec![0u8; 200])).unwrap();
        s.get("a").unwrap();
        let stats = s.stats();
        assert_eq!(stats.puts, 2);
        assert_eq!(stats.gets, 1);
        assert_eq!(stats.bytes_in, 300);
        assert_eq!(stats.bytes_out, 100);
        assert!(stats.request_dollars > 0.0);
    }

    #[test]
    fn runtime_priced_store_bills_zero_per_request() {
        let s = store(StorageKind::VmPs);
        s.put("a", Bytes::from(vec![0u8; 1024])).unwrap();
        s.get("a").unwrap();
        assert_eq!(s.stats().request_dollars, 0.0);
    }

    #[test]
    fn vector_encoding_roundtrips() {
        let v = vec![1.5f32, -2.25, 0.0, 1e-7, 3.4e38];
        let blob = encode_vector(&v);
        assert_eq!(blob.len(), v.len() * 4);
        assert_eq!(decode_vector(&blob), v);
    }

    #[test]
    fn empty_vector_roundtrips() {
        let blob = encode_vector(&[]);
        assert!(decode_vector(&blob).is_empty());
    }

    #[test]
    fn faster_service_has_shorter_op_duration() {
        let s3 = store(StorageKind::S3);
        let vm = store(StorageKind::VmPs);
        let blob = Bytes::from(vec![0u8; 12 * 1024 * 1024]); // 12 MB model
        let t_s3 = s3.put("m", blob.clone()).unwrap().duration_s;
        let t_vm = vm.put("m", blob).unwrap().duration_s;
        assert!(t_vm < t_s3);
    }

    #[test]
    fn server_side_ops_are_free_on_vmps() {
        let s = store(StorageKind::VmPs);
        s.put("g", Bytes::from(vec![1u8, 2, 3, 4])).unwrap();
        let before = s.stats();
        let (blob, r) = s.get_server_side("g").unwrap();
        assert_eq!(blob.len(), 4);
        assert_eq!(r.duration_s, 0.0);
        assert_eq!(r.dollars, 0.0);
        let r = s.put_server_side("m", Bytes::from(vec![9u8])).unwrap();
        assert_eq!(r.duration_s, 0.0);
        // Server-side traffic is not billed and not counted as requests.
        let after = s.stats();
        assert_eq!(after.puts, before.puts);
        assert_eq!(after.gets, before.gets);
        assert_eq!(after.request_dollars, before.request_dollars);
        // But the object is really there.
        assert!(s.contains("m"));
    }

    #[test]
    #[should_panic(expected = "server-side")]
    fn server_side_ops_rejected_on_stateless_storage() {
        let s = store(StorageKind::S3);
        let _ = s.put_server_side("m", Bytes::from(vec![1u8]));
    }

    #[test]
    fn server_side_get_missing_key_errors() {
        let s = store(StorageKind::VmPs);
        assert!(matches!(
            s.get_server_side("nope"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let s = Arc::new(store(StorageKind::S3));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for j in 0..50 {
                        let key = format!("w{i}-{j}");
                        s.put(&key, Bytes::from(vec![0u8; 64])).unwrap();
                        s.get(&key).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = s.stats();
        assert_eq!(stats.puts, 400);
        assert_eq!(stats.gets, 400);
        assert_eq!(s.len(), 400);
    }
}
