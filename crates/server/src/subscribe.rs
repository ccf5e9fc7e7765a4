//! The push side of registered-query streaming: a registry of live
//! subscribers fed by the backend's update hook.
//!
//! Every committed update batch reaches [`SubscriptionHub::publish`]
//! (installed as the engine/runtime [`expfinder_engine::UpdateHook`] by
//! `Server::bind`), which fans the encoded `update` frame out to
//! every subscriber of that graph. A graph without subscribers pays one
//! mutex acquire and a scan of the slots; the frame is encoded only for
//! a graph that has one.
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

use crate::metrics::block;
use crate::wire;
use expfinder_engine::UpdateReport;
use expfinder_graph::json::Value;
use expfinder_graph::Counters;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};

/// One live subscriber as the hub sees it.
struct Slot {
    id: u64,
    graph: String,
    /// `None` = all registered queries; `Some` = only these names.
    filter: Option<Vec<String>>,
    tx: SyncSender<Arc<str>>,
}

/// The receiving half handed to the connection's streaming loop.
pub(crate) struct Subscriber {
    /// Hub-assigned id (echoed in the `hello` frame; used to deregister).
    pub(crate) id: u64,
    /// Encoded `update` frames (newline-terminated lines), pushed in
    /// commit order.
    pub(crate) rx: Receiver<Arc<str>>,
}

/// Registry of all live subscriptions on one server.
pub(crate) struct SubscriptionHub {
    queue_capacity: usize,
    slots: Mutex<Vec<Slot>>,
    next_id: AtomicU64,
    /// Update frames enqueued (after filtering), and subscribers evicted
    /// because their queue was full.
    counters: Counters<2>,
}

impl SubscriptionHub {
    pub(crate) fn new(queue_capacity: usize) -> SubscriptionHub {
        SubscriptionHub {
            queue_capacity: queue_capacity.max(1),
            slots: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            counters: Counters::new(&["frames_pushed", "slow_consumer_disconnects"]),
        }
    }

    /// Register a subscriber for `graph` (optionally filtered to a set
    /// of registered-query names) and return its receiving half.
    pub(crate) fn subscribe(&self, graph: &str, filter: Option<Vec<String>>) -> Subscriber {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::sync_channel(self.queue_capacity);
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Slot {
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
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|s| s.id != id);
    }

    /// Fan one committed update batch out to every subscriber of
    /// `graph`. Called from the catalog's update hook, i.e. inside the
    /// engine's update commit under the graph's write mutex, on the
    /// writer's own thread on both backends, so frames are enqueued in
    /// commit order. Never blocks: a full subscriber queue evicts that
    /// subscriber instead.
    pub(crate) fn publish(&self, graph: &str, report: &UpdateReport) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        // encode once, to text every unfiltered subscriber shares;
        // filtered subscribers get the report narrowed to their query set
        let encode = |filter: Option<&[String]>| -> Arc<str> {
            wire::ndjson_line(&wire::subscription_update_frame(report, filter)).into()
        };
        let mut unfiltered = None;
        let mut evicted = 0u64;
        let mut pushed = 0u64;
        slots.retain(|slot| {
            if slot.graph != graph {
                return true;
            }
            let frame = match &slot.filter {
                None => Arc::clone(unfiltered.get_or_insert_with(|| encode(None))),
                Some(keep) => encode(Some(keep)),
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
        self.counters.add(0, pushed);
        self.counters.add(1, evicted);
    }

    /// Live subscriber count (the `/metrics` gauge).
    pub(crate) fn live(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The `subscriptions` block of the `/metrics` document.
    pub(crate) fn to_json(&self) -> Value {
        block(
            &self.counters,
            vec![
                ("live", Value::Int(self.live() as i64)),
                ("queue_capacity", Value::Int(self.queue_capacity as i64)),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_engine::{RegisteredDelta, UpdateReport};
    use expfinder_graph::json;

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
        let also_a = hub.subscribe("a", None);
        let b = hub.subscribe("b", None);
        assert_eq!(hub.live(), 3);
        hub.publish("a", &report(3, &[("team", 1, 2)]));
        let line = a.rx.try_recv().unwrap();
        // one encode, shared by every unfiltered subscriber
        assert!(Arc::ptr_eq(&line, &also_a.rx.try_recv().unwrap()));
        assert!(line.ends_with('\n'));
        let frame = json::parse(&line).unwrap();
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
        let frame = json::parse(&sub.rx.try_recv().unwrap()).unwrap();
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
        assert_eq!(hub.counters.get("slow_consumer_disconnects"), 1);
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
