//! A wire tap for integration tests: a site that records every request a
//! service is sent and relays it to the service's real LAM, so a test can
//! assert on what actually crossed the wire in either format.

use ldbs::engine::ResultSet;
use mdbs::proto::RowsRequest;
use mdbs::{codec, Federation};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub struct Tap {
    seen: Arc<Mutex<Vec<RowsRequest>>>,
    /// Set to lose the reply to the next `COMBINE` on its way back.
    lose_combine_reply: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Tap {
    /// Re-points `service` (whose LAM listens at `real_site`) at a relay site
    /// and starts recording.
    pub fn install(fed: &mut Federation, service: &str, real_site: &str) -> Tap {
        let tap_site = format!("tap_{service}");
        let endpoint = fed.network().register(&tap_site).expect("tap site");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let lose_combine_reply = Arc::new(AtomicBool::new(false));
        let (thread_seen, thread_stop, real) =
            (Arc::clone(&seen), Arc::clone(&stop), real_site.to_string());
        let lose = Arc::clone(&lose_combine_reply);
        let thread = std::thread::spawn(move || {
            // correlation id → the client waiting for that reply.
            let mut waiting: HashMap<u64, String> = HashMap::new();
            while !thread_stop.load(Ordering::SeqCst) {
                let Ok(msg) = endpoint.recv_timeout(Duration::from_millis(20)) else { continue };
                let (corr, _) = codec::peek(&msg.body);
                if msg.from == real {
                    if let Some(client) = corr.and_then(|id| waiting.remove(&id)) {
                        let _ = endpoint.send(&client, msg.body);
                    }
                    continue;
                }
                let (decoded, _) =
                    codec::read_request::<ResultSet>(&msg.body).expect("a well-formed request");
                // The LAM still gets (and serves) the request; with nobody
                // waiting for its id the reply is dropped here. A resend of
                // the same id is waited for again.
                let lost = matches!(decoded, RowsRequest::Combine { .. })
                    && lose.swap(false, Ordering::SeqCst);
                thread_seen.lock().unwrap().push(decoded);
                if let Some(id) = corr.filter(|_| !lost) {
                    waiting.insert(id, msg.from.clone());
                }
                let _ = endpoint.send(&real, msg.body);
            }
        });
        fed.execute(&format!(
            "INCORPORATE SERVICE {service} SITE {tap_site} CONNECTMODE CONNECT COMMITMODE NOCOMMIT"
        ))
        .expect("re-point the service at the tap");
        Tap { seen, lose_combine_reply, stop, thread: Some(thread) }
    }

    /// Loses the reply to the next `COMBINE`: the LAM serves the request,
    /// its client never hears back.
    #[allow(dead_code)] // not every test binary that shares this module uses it
    pub fn lose_next_combine_reply(&self) {
        self.lose_combine_reply.store(true, Ordering::SeqCst);
    }

    /// The requests recorded since the last call that had the site evaluate
    /// a join subquery — `PARTIAL` / `PARTIALAGG` / `SHIP`, or a `COMBINE`
    /// carrying its home subquery (handshakes, statistics fetches, the parts
    /// other LAMs ship here and the like are dropped).
    pub fn drain_partials(&self) -> Vec<RowsRequest> {
        let mut seen = std::mem::take(&mut *self.seen.lock().unwrap());
        seen.retain(|r| {
            matches!(
                r,
                RowsRequest::Partial { .. }
                    | RowsRequest::PartialAgg { .. }
                    | RowsRequest::Ship { .. }
                    | RowsRequest::Combine { .. }
            )
        });
        seen
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// `(statements, rows_scanned)` of a service's engine.
pub fn engine_counters(fed: &Federation, service: &str) -> (u64, u64) {
    let stats = fed.engine(service).expect("service engine").lock().stats();
    (stats.statements, stats.rows_scanned)
}

/// The partial-result payload bytes the sites have shipped back so far:
/// Σ `lam.bytes{db=}`.
pub fn lam_bytes(fed: &Federation) -> u64 {
    let counters = fed.metrics().counters;
    counters.iter().filter(|(name, _)| name.starts_with("lam.bytes{")).map(|(_, v)| *v).sum()
}

/// Rows currently stored in `service`'s table `db.table`.
pub fn table_rows(fed: &Federation, service: &str, db: &str, table: &str) -> u64 {
    let engine = fed.engine(service).expect("service engine");
    let engine = engine.lock();
    engine.database(db).expect("database").table(table).expect("table").len() as u64
}
