//! Offline drop-in subset of the `crossbeam` 0.8 API.
//!
//! The build environment for this workspace has no access to crates.io, so
//! the workspace pins `crossbeam` to this local implementation covering the
//! surface the serving layer uses: [`channel::bounded`] multi-producer
//! **multi-consumer** channels with blocking, non-blocking, and timed
//! operations, and disconnect detection when either side is fully dropped.
//!
//! The implementation is a `Mutex<VecDeque>` + two condvars — not lock-free
//! like the real crossbeam, but semantically identical for the operations
//! exposed here, and plenty fast for a bounded work queue whose consumers
//! do real work per message.

#![warn(missing_docs)]

/// Multi-producer multi-consumer channels (`crossbeam-channel` subset).
#[expect(
    clippy::disallowed_types,
    reason = "the channel shim is built on std::sync::{Mutex, Condvar}"
)]
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        cap: usize,
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            // Consumers never panic while holding this lock in this
            // workspace; strip the poison flag like parking_lot would.
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// Sending half of a channel. Cloneable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half of a channel. Cloneable (multi-consumer).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned by [`Sender::send`]: all receivers are gone. Carries
    /// the unsent message.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`]. Carries the unsent message.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`]: the channel is empty and all
    /// senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates a bounded channel holding at most `cap` in-flight messages.
    ///
    /// `cap` of zero is rounded up to one (this subset does not implement
    /// rendezvous channels; the serving layer always uses a positive bound).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            cap: cap.max(1),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while the channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.inner.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(msg));
                }
                if state.queue.len() < self.inner.cap {
                    state.queue.push_back(msg);
                    drop(state);
                    self.inner.not_empty.notify_one();
                    return Ok(());
                }
                state = self
                    .inner
                    .not_full
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Sends `msg` only if the channel has room right now.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut state = self.inner.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if state.queue.len() >= self.inner.cap {
                return Err(TrySendError::Full(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            self.inner.not_empty.notify_one();
            Ok(())
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking while the channel is empty.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.inner.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    drop(state);
                    self.inner.not_full.notify_one();
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .inner
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Receives a message only if one is queued right now.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.inner.lock();
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Receives a message, waiting at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.inner.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    drop(state);
                    self.inner.not_full.notify_one();
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .inner
                    .not_empty
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                state = guard;
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.lock().senders += 1;
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.lock().receivers += 1;
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.inner.lock();
            state.senders -= 1;
            let last = state.senders == 0;
            drop(state);
            if last {
                // Wake blocked receivers so they observe the disconnect.
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.inner.lock();
            state.receivers -= 1;
            let last = state.receivers == 0;
            drop(state);
            if last {
                // Wake blocked senders so they observe the disconnect.
                self.inner.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn try_send_reports_full() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn dropping_all_senders_disconnects() {
        let (tx, rx) = bounded::<u32>(2);
        let tx2 = tx.clone();
        tx.send(7).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7)); // drain queued messages first
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn dropping_all_receivers_disconnects() {
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
        assert_eq!(tx.try_send(2), Err(TrySendError::Disconnected(2)));
    }

    #[test]
    fn recv_timeout_times_out_and_succeeds() {
        let (tx, rx) = bounded(2);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
    }

    #[test]
    fn blocking_send_unblocks_when_room_appears() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn multi_consumer_partitions_messages() {
        let (tx, rx) = bounded(64);
        let rx2 = rx.clone();
        let consume = |rx: Receiver<u32>| {
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            })
        };
        let a = consume(rx);
        let b = consume(rx2);
        for i in 0..50 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all = a.join().unwrap();
        all.extend(b.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }
}
