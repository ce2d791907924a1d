//! The network fabric and site endpoints.

use crate::error::NetError;
use crate::latency::LatencyModel;
use crate::message::{Body, Envelope, Message};
use crate::stats::NetStats;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use obs::{LogicalClock, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observability hook: every send advances the logical clock (so traces see
/// network activity as time) and feeds the `net.*` metric series.
#[derive(Clone, Default)]
struct Probe {
    clock: LogicalClock,
    metrics: MetricsRegistry,
}

#[derive(Default)]
struct Fabric {
    probe: RwLock<Option<Probe>>,
    sites: RwLock<HashMap<String, Sender<Envelope>>>,
    latency: RwLock<LatencyModel>,
    partitions: RwLock<HashSet<(String, String)>>,
    drop_probability: RwLock<f64>,
    link_drop_probability: RwLock<HashMap<(String, String), f64>>,
    /// Deterministic injection: the next N messages on a link are dropped.
    forced_drops: RwLock<HashMap<(String, String), u64>>,
    /// What every link's loss stream is derived from ([`Network::with_seed`]).
    seed: u64,
    /// One loss stream per directed link, created on its first lossy send:
    /// a link's k-th message meets the same fate whatever other links
    /// carry in between, so a fan-out replays from the seed.
    link_rngs: Mutex<HashMap<(String, String), StdRng>>,
    stats: Mutex<NetStats>,
    seq: AtomicU64,
    /// Next client endpoint number ([`Network::register_client`]).
    clients: AtomicU64,
}

/// A simulated network shared by all sites of the federation. Cloning is
/// cheap (shared fabric).
#[derive(Clone, Default)]
pub struct Network {
    fabric: Arc<Fabric>,
}

impl Network {
    /// Creates a network with no latency and no failures.
    pub fn new() -> Self {
        Network::default()
    }

    /// Creates a network whose stochastic drops are drawn from `seed` (a
    /// plain [`Network::new`] draws from seed 0): each directed link has a
    /// stream of its own, seeded from `seed` and the two endpoint names.
    pub fn with_seed(seed: u64) -> Self {
        Network { fabric: Arc::new(Fabric { seed, ..Fabric::default() }) }
    }

    /// Registers a site and returns its endpoint.
    pub fn register(&self, name: &str) -> Result<Endpoint, NetError> {
        let (tx, rx) = unbounded();
        let mut sites = self.fabric.sites.write();
        if sites.contains_key(name) {
            return Err(NetError::DuplicateSite(name.to_string()));
        }
        sites.insert(name.to_string(), tx);
        Ok(Endpoint { name: name.to_string(), rx, fabric: Arc::clone(&self.fabric) })
    }

    /// Registers a client endpoint named `<prefix><n>`, with `n` counted per
    /// network in registration order: two networks built the same way name
    /// — and so seed — their links the same.
    pub fn register_client(&self, prefix: &str) -> Result<Endpoint, NetError> {
        let n = self.fabric.clients.fetch_add(1, Ordering::Relaxed);
        self.register(&format!("{prefix}{n}"))
    }

    /// Removes a site; pending messages to it are lost.
    pub fn deregister(&self, name: &str) {
        self.fabric.sites.write().remove(name);
    }

    /// Installs a latency model.
    pub fn set_latency(&self, model: LatencyModel) {
        *self.fabric.latency.write() = model;
    }

    /// Sets the probability that any message is silently dropped.
    pub fn set_drop_probability(&self, p: f64) {
        *self.fabric.drop_probability.write() = p.clamp(0.0, 1.0);
    }

    /// Sets a directional per-link drop probability. Where both a global
    /// and a link probability apply, the larger wins. Either endpoint may be
    /// the wildcard `"*"`, matching any site — useful to degrade every link
    /// touching one site when the peers (e.g. ephemeral client endpoints)
    /// are not known in advance. An exact link entry takes precedence over a
    /// wildcard one.
    pub fn set_link_drop_probability(&self, from: &str, to: &str, p: f64) {
        self.fabric
            .link_drop_probability
            .write()
            .insert((from.to_string(), to.to_string()), p.clamp(0.0, 1.0));
    }

    /// Sets the same drop probability in both directions.
    pub fn set_link_drop_probability_symmetric(&self, a: &str, b: &str, p: f64) {
        self.set_link_drop_probability(a, b, p);
        self.set_link_drop_probability(b, a, p);
    }

    /// Removes a per-link drop probability.
    pub fn clear_link_drop_probability(&self, from: &str, to: &str) {
        self.fabric.link_drop_probability.write().remove(&(from.to_string(), to.to_string()));
    }

    /// Deterministically drops the next `count` messages sent on the
    /// `from → to` link, then restores normal delivery. Used to lose a
    /// specific message (e.g. exactly one commit ack) without randomness.
    /// Either endpoint may be the wildcard `"*"`; an exact link entry is
    /// consumed before a wildcard one.
    pub fn drop_next(&self, from: &str, to: &str, count: u64) {
        self.fabric.forced_drops.write().insert((from.to_string(), to.to_string()), count);
    }

    /// Injects an extra directional delay (latency spike) on a link,
    /// stacking on top of the installed latency model.
    pub fn inject_link_delay(&self, from: &str, to: &str, extra: Duration) {
        self.fabric.latency.write().inject_spike(from, to, extra);
    }

    /// Clears an injected latency spike.
    pub fn clear_link_delay(&self, from: &str, to: &str) {
        self.fabric.latency.write().clear_spike(from, to);
    }

    /// Partitions two sites (both directions refuse sends).
    pub fn partition(&self, a: &str, b: &str) {
        let mut p = self.fabric.partitions.write();
        p.insert((a.to_string(), b.to_string()));
        p.insert((b.to_string(), a.to_string()));
    }

    /// Heals a partition.
    pub fn heal(&self, a: &str, b: &str) {
        let mut p = self.fabric.partitions.write();
        p.remove(&(a.to_string(), b.to_string()));
        p.remove(&(b.to_string(), a.to_string()));
    }

    /// True when a send from `from` to `to` would find a mailbox and not be
    /// refused by a partition. Answered from the fabric's own tables — no
    /// message, no clock tick, no RNG draw — so a connection pool can
    /// validate an idle link for free.
    pub fn link_is_up(&self, from: &str, to: &str) -> bool {
        self.fabric.sites.read().contains_key(to)
            && !self.fabric.partitions.read().contains(&(from.to_string(), to.to_string()))
    }

    /// Names of the currently registered sites (unordered).
    pub fn site_names(&self) -> Vec<String> {
        self.fabric.sites.read().keys().cloned().collect()
    }

    /// Attaches an observability probe: every delivered or dropped message
    /// ticks `clock` once and increments the `net.messages` / `net.bytes` /
    /// `net.dropped` / `net.refused` counters in `metrics`.
    pub fn attach_probe(&self, clock: LogicalClock, metrics: MetricsRegistry) {
        *self.fabric.probe.write() = Some(Probe { clock, metrics });
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        self.fabric.stats.lock().clone()
    }

    /// Resets the traffic counters (between benchmark iterations).
    pub fn reset_stats(&self) {
        *self.fabric.stats.lock() = NetStats::default();
    }
}

/// A site's handle on the network: send to any site, receive from a private
/// mailbox.
pub struct Endpoint {
    name: String,
    rx: Receiver<Envelope>,
    fabric: Arc<Fabric>,
}

impl Endpoint {
    /// This endpoint's site name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ticks the attached probe (if any) and bumps one `net.*` counter.
    /// Exactly one clock tick per observable network event — golden traces
    /// pin tick-derived spans, so the per-format byte counters below ride on
    /// the same event without extra ticks.
    fn probe_event(&self, counter: &str, body: Option<&Body>) {
        if let Some(probe) = self.fabric.probe.read().as_ref() {
            probe.clock.tick();
            probe.metrics.counter_add(counter, 1);
            if let Some(body) = body {
                if !body.is_empty() {
                    probe.metrics.counter_add("net.bytes", body.len() as u64);
                    let variant = match body {
                        Body::Text(_) => "net.bytes_text",
                        Body::Binary(_) => "net.bytes_binary",
                    };
                    probe.metrics.counter_add(variant, body.len() as u64);
                }
            }
        }
    }

    /// Sends a message. Fails fast on partitions and unknown sites; a
    /// stochastic drop is reported as success (the sender cannot tell — it
    /// will observe a receive timeout instead), mirroring real datagram
    /// behaviour. A message meets its link's fate before it finds out whether
    /// anyone is there: the k-th message on a link is lost or not whether its
    /// endpoint closed just before or just after it was sent.
    pub fn send(&self, to: &str, body: impl Into<Body>) -> Result<(), NetError> {
        let body = body.into();
        // The fault tables are empty on a healthy fabric: each is asked that
        // under its read lock before any key is built for it, so a send
        // allocates nothing it does not ship and concurrent senders share
        // every lock up to the stats.
        let partitioned = {
            let partitions = self.fabric.partitions.read();
            !partitions.is_empty() && partitions.contains(&(self.name.clone(), to.to_string()))
        };
        if partitioned {
            self.fabric.stats.lock().refused += 1;
            self.probe_event("net.refused", None);
            return Err(NetError::Partitioned { from: self.name.clone(), to: to.to_string() });
        }
        // Exact match first, then wildcard sender, then wildcard receiver.
        let link_keys = || {
            [
                (self.name.clone(), to.to_string()),
                ("*".to_string(), to.to_string()),
                (self.name.clone(), "*".to_string()),
            ]
        };
        // Deterministic forced drop (highest precedence).
        if !self.fabric.forced_drops.read().is_empty() {
            let mut forced = self.fabric.forced_drops.write();
            for key in &link_keys() {
                if let Some(remaining) = forced.get_mut(key) {
                    if *remaining > 0 {
                        *remaining -= 1;
                        if *remaining == 0 {
                            forced.remove(key);
                        }
                        self.fabric.stats.lock().record_drop(&self.name, to);
                        self.probe_event("net.dropped", None);
                        return Ok(());
                    }
                }
            }
        }
        // Stochastic drop: the larger of the global and per-link rates.
        let p = {
            let global = *self.fabric.drop_probability.read();
            let map = self.fabric.link_drop_probability.read();
            let per_link = if map.is_empty() {
                0.0
            } else {
                link_keys().iter().find_map(|key| map.get(key).copied()).unwrap_or(0.0)
            };
            global.max(per_link)
        };
        if p > 0.0 {
            let lost = {
                let mut rngs = self.fabric.link_rngs.lock();
                let link = (self.name.clone(), to.to_string());
                let rng = rngs.entry(link).or_insert_with_key(|(from, to)| {
                    StdRng::seed_from_u64(link_seed(self.fabric.seed, from, to))
                });
                rng.gen_bool(p)
            };
            if lost {
                self.fabric.stats.lock().record_drop(&self.name, to);
                self.probe_event("net.dropped", None);
                return Ok(());
            }
        }
        let sites = self.fabric.sites.read();
        let tx = sites.get(to).ok_or_else(|| NetError::UnknownSite(to.to_string()))?;
        let delay = self.fabric.latency.read().delay(&self.name, to);
        let seq = self.fabric.seq.fetch_add(1, Ordering::Relaxed);
        let message = Message { from: self.name.clone(), to: to.to_string(), body, seq };
        self.fabric.stats.lock().record_send(&self.name, to, message.body.len());
        self.probe_event("net.messages", Some(&message.body));
        let envelope = Envelope { message, deliver_at: Instant::now() + delay };
        tx.send(envelope).map_err(|_| NetError::Disconnected)?;
        Ok(())
    }

    /// Receives the next message, waiting at most `timeout`. Honours each
    /// message's simulated delivery time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, NetError> {
        let deadline = Instant::now() + timeout;
        match self.rx.recv_deadline(deadline) {
            Ok(envelope) => Ok(land(envelope)),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Receives with a generous default timeout (tests).
    pub fn recv(&self) -> Result<Message, NetError> {
        self.recv_timeout(Duration::from_secs(10))
    }

    /// Receives the next message however long it takes (servers): returns
    /// only with a message or, once the site has been deregistered and its
    /// mailbox drained, with [`NetError::Disconnected`]. Every thread blocked
    /// here on one endpoint wakes on the deregistration.
    pub fn recv_blocking(&self) -> Result<Message, NetError> {
        self.rx.recv().map(land).map_err(|_| NetError::Disconnected)
    }

    /// True when a message is ready in the mailbox (may still be in
    /// simulated flight).
    pub fn has_mail(&self) -> bool {
        !self.rx.is_empty()
    }
}

/// The seed of the `from → to` loss stream: FNV-1a over the network seed and
/// the two names, the same in every process and on every platform.
fn link_seed(seed: u64, from: &str, to: &str) -> u64 {
    let bytes = seed.to_le_bytes().into_iter().chain(from.bytes()).chain([0xFF]).chain(to.bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Waits out a dequeued message's simulated flight time (senders enqueue
/// instantly).
fn land(envelope: Envelope) -> Message {
    let now = Instant::now();
    if envelope.deliver_at > now {
        std::thread::sleep(envelope.deliver_at - now);
    }
    envelope.message
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_receive() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        a.send("b", "hello").unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.from, "a");
        assert_eq!(m.body, "hello");
    }

    #[test]
    fn unknown_site_is_an_error() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        assert!(matches!(a.send("ghost", "x"), Err(NetError::UnknownSite(_))));
    }

    #[test]
    fn duplicate_site_rejected() {
        let net = Network::new();
        let _a = net.register("a").unwrap();
        assert!(matches!(net.register("a"), Err(NetError::DuplicateSite(_))));
    }

    #[test]
    fn messages_preserve_order_per_link() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        for i in 0..10 {
            a.send("b", format!("m{i}")).unwrap();
        }
        for i in 0..10 {
            assert_eq!(b.recv().unwrap().body, format!("m{i}"));
        }
    }

    #[test]
    fn partition_refuses_sends_and_heals() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        net.partition("a", "b");
        assert!(matches!(a.send("b", "x"), Err(NetError::Partitioned { .. })));
        assert!(matches!(b.send("a", "x"), Err(NetError::Partitioned { .. })));
        net.heal("a", "b");
        a.send("b", "x").unwrap();
        assert_eq!(b.recv().unwrap().body, "x");
        assert_eq!(net.stats().refused, 2);
    }

    #[test]
    fn link_is_up_tracks_registration_and_partitions_without_traffic() {
        let net = Network::new();
        let _a = net.register("a").unwrap();
        assert!(!net.link_is_up("a", "b"), "b is not registered yet");
        let _b = net.register("b").unwrap();
        assert!(net.link_is_up("a", "b"));
        net.partition("a", "b");
        assert!(!net.link_is_up("a", "b") && !net.link_is_up("b", "a"));
        net.heal("a", "b");
        net.deregister("b");
        assert!(!net.link_is_up("a", "b"));
        let mut names = net.site_names();
        names.sort();
        assert_eq!(names, vec!["a".to_string()]);
        assert_eq!(net.stats(), NetStats::default(), "asking costs no message");
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let net = Network::with_seed(7);
        net.set_drop_probability(1.0);
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        a.send("b", "x").unwrap(); // sender cannot tell
        assert!(matches!(b.recv_timeout(Duration::from_millis(20)), Err(NetError::Timeout)));
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn per_link_drop_probability_only_affects_that_link() {
        let net = Network::with_seed(11);
        net.set_link_drop_probability("a", "b", 1.0);
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        a.send("b", "lost").unwrap();
        assert!(matches!(b.recv_timeout(Duration::from_millis(20)), Err(NetError::Timeout)));
        // The reverse direction is unaffected.
        b.send("a", "ok").unwrap();
        assert_eq!(a.recv().unwrap().body, "ok");
        assert_eq!(net.stats().link_dropped("a", "b"), 1);
        assert_eq!(net.stats().link_dropped("b", "a"), 0);
        net.clear_link_drop_probability("a", "b");
        a.send("b", "healed").unwrap();
        assert_eq!(b.recv().unwrap().body, "healed");
    }

    /// The delivered (`true`) / dropped fate of each message `from` sends.
    fn fates(net: &Network, from: &Endpoint, to: &str, sent: usize) -> Vec<bool> {
        let mut dropped = net.stats().link_dropped(from.name(), to);
        let mut fates = Vec::with_capacity(sent);
        for _ in 0..sent {
            from.send(to, "m").unwrap();
            let now = net.stats().link_dropped(from.name(), to);
            fates.push(now == dropped);
            dropped = now;
        }
        fates
    }

    #[test]
    fn a_links_losses_do_not_depend_on_other_links_traffic() {
        let run = |alternate: bool| {
            let net = Network::with_seed(42);
            net.set_link_drop_probability("a", "x", 0.5);
            net.set_link_drop_probability("b", "y", 0.5);
            let (a, b) = (net.register("a").unwrap(), net.register("b").unwrap());
            let (_x, _y) = (net.register("x").unwrap(), net.register("y").unwrap());
            if alternate {
                let (mut on_a, mut on_b) = (Vec::new(), Vec::new());
                for _ in 0..64 {
                    on_a.extend(fates(&net, &a, "x", 1));
                    on_b.extend(fates(&net, &b, "y", 1));
                }
                (on_a, on_b)
            } else {
                (fates(&net, &a, "x", 64), fates(&net, &b, "y", 64))
            }
        };
        let (a_first, alternating) = (run(false), run(true));
        assert_eq!(a_first, alternating, "a link's k-th message meets the same fate");
        for fates in [&a_first.0, &a_first.1] {
            assert!(fates.contains(&true) && fates.contains(&false), "{fates:?}");
        }
        assert_ne!(a_first.0, a_first.1, "each link draws from its own stream");
    }

    #[test]
    fn client_endpoints_are_numbered_per_network() {
        for _ in 0..2 {
            let net = Network::new();
            let names: Vec<String> = (0..3)
                .map(|_| net.register_client("__cli_s_").unwrap().name().to_string())
                .collect();
            assert_eq!(names, ["__cli_s_0", "__cli_s_1", "__cli_s_2"]);
        }
    }

    #[test]
    fn wildcard_link_drop_matches_any_peer() {
        let net = Network::with_seed(3);
        net.set_link_drop_probability("*", "b", 1.0);
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let c = net.register("c").unwrap();
        a.send("b", "x").unwrap();
        c.send("b", "y").unwrap();
        assert!(matches!(b.recv_timeout(Duration::from_millis(20)), Err(NetError::Timeout)));
        assert_eq!(net.stats().dropped, 2, "both senders hit the wildcard link");
        // Other destinations are unaffected.
        b.send("a", "ok").unwrap();
        assert_eq!(a.recv().unwrap().body, "ok");
        // An exact entry takes precedence over the wildcard.
        net.set_link_drop_probability("a", "b", 0.0);
        a.send("b", "through").unwrap();
        assert_eq!(b.recv().unwrap().body, "through");
    }

    #[test]
    fn wildcard_forced_drop_loses_next_outgoing_message() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        net.drop_next("a", "*", 1);
        a.send("b", "lost").unwrap();
        a.send("b", "kept").unwrap();
        assert_eq!(b.recv().unwrap().body, "kept");
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn drop_next_loses_exactly_n_messages() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        net.drop_next("a", "b", 2);
        a.send("b", "one").unwrap();
        a.send("b", "two").unwrap();
        a.send("b", "three").unwrap();
        assert_eq!(b.recv().unwrap().body, "three");
        assert!(matches!(b.recv_timeout(Duration::from_millis(10)), Err(NetError::Timeout)));
        assert_eq!(net.stats().dropped, 2);
    }

    #[test]
    fn injected_delay_spikes_slow_one_link() {
        let net = Network::new();
        net.inject_link_delay("a", "b", Duration::from_millis(30));
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let start = Instant::now();
        a.send("b", "x").unwrap();
        b.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
        net.clear_link_delay("a", "b");
        let start = Instant::now();
        a.send("b", "y").unwrap();
        b.recv().unwrap();
        assert!(start.elapsed() < Duration::from_millis(25));
    }

    #[test]
    fn latency_delays_delivery() {
        let net = Network::new();
        let mut model = LatencyModel::instant();
        model.set_link("a", "b", Duration::from_millis(30));
        net.set_latency(model);
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let start = Instant::now();
        a.send("b", "x").unwrap();
        b.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn latency_overlaps_for_messages_in_flight() {
        // Two messages sent at once through 30 ms links arrive ~together,
        // not serially — the property parallel plans rely on.
        let net = Network::new();
        net.set_latency(LatencyModel::uniform(Duration::from_millis(30)));
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let start = Instant::now();
        a.send("b", "one").unwrap();
        a.send("b", "two").unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(30));
        assert!(elapsed < Duration::from_millis(55), "elapsed {elapsed:?}");
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let _b = net.register("b").unwrap();
        a.send("b", "12345").unwrap();
        a.send("b", "1").unwrap();
        let s = net.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 6);
        assert_eq!(s.link_messages("a", "b"), 2);
        net.reset_stats();
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn probe_ticks_clock_and_counts_traffic() {
        let net = Network::new();
        let clock = LogicalClock::new();
        let metrics = MetricsRegistry::new();
        net.attach_probe(clock.clone(), metrics.clone());
        let a = net.register("a").unwrap();
        let _b = net.register("b").unwrap();
        a.send("b", "12345").unwrap();
        net.drop_next("a", "b", 1);
        a.send("b", "lost").unwrap();
        assert_eq!(clock.now(), 2, "one tick per observable network event");
        assert_eq!(metrics.counter("net.messages"), 1);
        assert_eq!(metrics.counter("net.bytes"), 5);
        assert_eq!(metrics.counter("net.bytes_text"), 5);
        assert_eq!(metrics.counter("net.bytes_binary"), 0);
        assert_eq!(metrics.counter("net.dropped"), 1);
    }

    #[test]
    fn binary_bodies_ship_and_count_separately() {
        let net = Network::new();
        let clock = LogicalClock::new();
        let metrics = MetricsRegistry::new();
        net.attach_probe(clock.clone(), metrics.clone());
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let pool = crate::pool::BufferPool::new(4);
        let mut frame = pool.lease();
        frame.extend_from_slice(&[0xB1, 0x01, 0x00]);
        a.send("b", frame).unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.body.as_binary(), Some(&[0xB1u8, 0x01, 0x00][..]));
        assert_eq!(metrics.counter("net.bytes"), 3);
        assert_eq!(metrics.counter("net.bytes_binary"), 3);
        assert_eq!(metrics.counter("net.bytes_text"), 0);
        assert_eq!(clock.now(), 1, "format does not change tick accounting");
        drop(m);
        assert_eq!(pool.idle(), 1, "receiver-side drop refills the sender's pool");
    }

    #[test]
    fn timeout_when_no_mail() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        assert!(matches!(a.recv_timeout(Duration::from_millis(10)), Err(NetError::Timeout)));
    }

    #[test]
    fn blocked_receivers_all_wake_when_the_site_is_deregistered() {
        let net = Network::new();
        let server = Arc::new(net.register("server").unwrap());
        let client = net.register("client").unwrap();
        let (woke, wakes) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let (server, woke) = (Arc::clone(&server), woke.clone());
                std::thread::spawn(move || loop {
                    let got = server.recv_blocking();
                    woke.send(got.clone().map(|m| m.body)).unwrap();
                    if got.is_err() {
                        break;
                    }
                })
            })
            .collect();
        client.send("server", "one").unwrap();
        assert_eq!(wakes.recv().unwrap().unwrap(), "one", "exactly one receiver takes a message");
        net.deregister("server");
        for _ in 0..3 {
            assert!(matches!(wakes.recv().unwrap(), Err(NetError::Disconnected)));
        }
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn cross_thread_usage() {
        let net = Network::new();
        let server = net.register("server").unwrap();
        let client = net.register("client").unwrap();
        let handle = std::thread::spawn(move || {
            let m = server.recv().unwrap();
            server.send(&m.from, format!("echo:{}", m.body)).unwrap();
        });
        client.send("server", "ping").unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(reply.body, "echo:ping");
        handle.join().unwrap();
    }
}
