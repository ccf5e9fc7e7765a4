//! The push side of registered-query streaming: a registry of live
//! subscribers fed by the backend's update hook.
//!
//! Every committed update batch reaches [`SubscriptionHub::publish`]
//! (installed as the engine/runtime [`expfinder_engine::UpdateHook`] by
//! `Server::bind_backend`), which fans the encoded `update` frame out to
//! every subscriber of that graph. Fan-out cost is proportional to the
//! number of *affected* subscribers — graphs without subscribers pay one
//! mutex acquire and an early return.
//!
//! Backpressure is per subscriber and never blocks the writer: each
//! subscriber owns a **bounded** queue (`ServerConfig::subscriber_queue`
//! frames) and `publish` uses `try_send`. A full queue means the
//! consumer's connection is not draining frames as fast as updates
//! commit; the hub evicts the slot on the spot — dropping the sender so
//! the streaming loop, once its socket unblocks, sees a disconnected
//! queue, flushes whatever frames were already buffered, and ends the
//! stream with a terminal `error` frame (`"slow-consumer"`). The update
//! path itself never waits on a slow socket.

use crate::metrics::obj;
use crate::wire;
use expfinder_engine::UpdateReport;
use expfinder_graph::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Mutex;

/// One live subscriber as the hub sees it.
struct Slot {
    id: u64,
    graph: String,
    /// `None` = all registered queries; `Some` = only these names.
    filter: Option<Vec<String>>,
    tx: SyncSender<Value>,
}

/// The receiving half handed to the connection's streaming loop.
pub(crate) struct Subscriber {
    /// Hub-assigned id (echoed in the `hello` frame; used to deregister).
    pub(crate) id: u64,
    /// Encoded `update` frames, pushed in commit order.
    pub(crate) rx: Receiver<Value>,
}

/// Registry of all live subscriptions on one server.
pub(crate) struct SubscriptionHub {
    queue_capacity: usize,
    slots: Mutex<Vec<Slot>>,
    next_id: AtomicU64,
    frames_pushed: AtomicU64,
    slow_consumer_disconnects: AtomicU64,
}

impl SubscriptionHub {
    pub(crate) fn new(queue_capacity: usize) -> SubscriptionHub {
        SubscriptionHub {
            queue_capacity: queue_capacity.max(1),
            slots: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            frames_pushed: AtomicU64::new(0),
            slow_consumer_disconnects: AtomicU64::new(0),
        }
    }

    /// Register a subscriber for `graph` (optionally filtered to a set
    /// of registered-query names) and return its receiving half.
    pub(crate) fn subscribe(&self, graph: &str, filter: Option<Vec<String>>) -> Subscriber {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::sync_channel(self.queue_capacity);
        self.slots.lock().expect("subs lock").push(Slot {
            id,
            graph: graph.to_owned(),
            filter,
            tx,
        });
        Subscriber { id, rx }
    }

    /// Deregister a subscriber (stream ended: client went away, drain,
    /// or write failure). Idempotent — the slot may already be gone if
    /// the publisher evicted it as a slow consumer.
    pub(crate) fn remove(&self, id: u64) {
        self.slots.lock().expect("subs lock").retain(|s| s.id != id);
    }

    /// Fan one committed update batch out to every subscriber of
    /// `graph`. Called from the catalog's update hook, i.e. inside the
    /// engine's update commit under the graph's write mutex (on the
    /// caller's thread for Local, on the graph's shard thread for
    /// Durable), so frames are enqueued in commit order. Never blocks: a full subscriber queue evicts that
    /// subscriber instead.
    pub(crate) fn publish(&self, graph: &str, report: &UpdateReport) {
        let mut slots = self.slots.lock().expect("subs lock");
        if !slots.iter().any(|s| s.graph == graph) {
            return;
        }
        // encode once for the common unfiltered case; filtered
        // subscribers get the report narrowed to their query set
        let unfiltered = wire::subscription_update_frame(report, None);
        let mut evicted = 0u64;
        let mut pushed = 0u64;
        slots.retain(|slot| {
            if slot.graph != graph {
                return true;
            }
            let frame = match &slot.filter {
                None => unfiltered.clone(),
                Some(keep) => wire::subscription_update_frame(report, Some(keep)),
            };
            match slot.tx.try_send(frame) {
                Ok(()) => {
                    pushed += 1;
                    true
                }
                Err(TrySendError::Full(_)) => {
                    evicted += 1;
                    false
                }
                // the streaming loop already ended; reap the slot
                Err(TrySendError::Disconnected(_)) => false,
            }
        });
        self.frames_pushed.fetch_add(pushed, Ordering::Relaxed);
        self.slow_consumer_disconnects
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// Live subscriber count (the `/metrics` gauge).
    pub(crate) fn live(&self) -> usize {
        self.slots.lock().expect("subs lock").len()
    }

    /// The `subscriptions` block of the `/metrics` document.
    pub(crate) fn to_json(&self) -> Value {
        obj(vec![
            ("live", Value::Int(self.live() as i64)),
            (
                "frames_pushed",
                Value::Int(self.frames_pushed.load(Ordering::Relaxed) as i64),
            ),
            (
                "slow_consumer_disconnects",
                Value::Int(self.slow_consumer_disconnects.load(Ordering::Relaxed) as i64),
            ),
            ("queue_capacity", Value::Int(self.queue_capacity as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_engine::{RegisteredDelta, UpdateReport};

    fn report(version: u64, queries: &[(&str, usize, usize)]) -> UpdateReport {
        UpdateReport {
            applied: 1,
            attempted: 1,
            graph_version: version,
            registered: queries
                .iter()
                .map(|&(q, b, a)| RegisteredDelta {
                    query: q.into(),
                    before_pairs: b,
                    after_pairs: a,
                })
                .collect(),
        }
    }

    #[test]
    fn publish_reaches_only_matching_graph() {
        let hub = SubscriptionHub::new(4);
        let a = hub.subscribe("a", None);
        let b = hub.subscribe("b", None);
        assert_eq!(hub.live(), 2);
        hub.publish("a", &report(3, &[("team", 1, 2)]));
        let frame = a.rx.try_recv().unwrap();
        assert_eq!(frame.field("frame").unwrap().as_str().unwrap(), "update");
        assert_eq!(
            frame
                .field("report")
                .unwrap()
                .field("graph_version")
                .unwrap()
                .as_i64()
                .unwrap(),
            3
        );
        assert!(b.rx.try_recv().is_err());
    }

    #[test]
    fn filtered_subscriber_sees_only_its_queries() {
        let hub = SubscriptionHub::new(4);
        let sub = hub.subscribe("g", Some(vec!["team".into()]));
        hub.publish("g", &report(2, &[("team", 1, 2), ("other", 5, 9)]));
        let frame = sub.rx.try_recv().unwrap();
        let delta = frame
            .field("report")
            .unwrap()
            .field("registered_delta")
            .unwrap();
        assert!(delta.field("team").is_ok());
        assert!(delta.field("other").is_err());
    }

    #[test]
    fn full_queue_evicts_the_subscriber() {
        let hub = SubscriptionHub::new(1);
        let sub = hub.subscribe("g", None);
        hub.publish("g", &report(1, &[]));
        hub.publish("g", &report(2, &[])); // queue full → evicted
        assert_eq!(hub.live(), 0);
        assert_eq!(hub.slow_consumer_disconnects.load(Ordering::Relaxed), 1);
        // the buffered frame is still deliverable, then the drop shows
        assert!(sub.rx.recv().is_ok());
        assert!(sub.rx.recv().is_err());
        let doc = hub.to_json();
        assert_eq!(doc.field("live").unwrap().as_i64().unwrap(), 0);
        assert_eq!(
            doc.field("slow_consumer_disconnects")
                .unwrap()
                .as_i64()
                .unwrap(),
            1
        );
        assert_eq!(doc.field("frames_pushed").unwrap().as_i64().unwrap(), 1);
    }

    #[test]
    fn remove_is_idempotent() {
        let hub = SubscriptionHub::new(2);
        let sub = hub.subscribe("g", None);
        hub.remove(sub.id);
        hub.remove(sub.id);
        assert_eq!(hub.live(), 0);
    }
}
