//! A timing [`Transport`] wrapper for the launch layer.
//!
//! It forwards every dispatch to the wrapped transport and records, per
//! flight, when it was dispatched, when its result arrived, how many
//! bytes it streamed back and whether it failed. The launcher itself is
//! untouched: it sees an ordinary transport.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use xbar_exp::launch::{Flight, Transport, WorkerJob};

/// What happened to one flight.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Host the flight ran on.
    pub host: String,
    /// Dispatch time.
    pub dispatched: Instant,
    /// When the result was polled in, if it was.
    pub finished: Option<Instant>,
    /// Bytes streamed back by a successful flight.
    pub bytes: usize,
    /// The flight (or its dispatch) reported an error.
    pub failed: bool,
    /// The launcher cancelled the flight before it delivered (hedge
    /// loser, watchdog, abort).
    pub cancelled: bool,
}

impl FlightRecord {
    /// Dispatch-to-result seconds, for finished flights.
    #[must_use]
    pub fn seconds(&self) -> Option<f64> {
        self.finished
            .map(|end| end.saturating_duration_since(self.dispatched).as_secs_f64())
    }
}

type Log = Arc<Mutex<Vec<FlightRecord>>>;

/// Wraps a transport and logs every flight it starts.
#[derive(Debug)]
pub struct TimingTransport<T> {
    inner: T,
    log: Log,
}

impl<T> TimingTransport<T> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The flights recorded so far, in dispatch order.
    ///
    /// # Panics
    ///
    /// Panics if a flight panicked while recording.
    #[must_use]
    pub fn records(&self) -> Vec<FlightRecord> {
        self.log.lock().expect("flight log poisoned").clone()
    }
}

impl<T: Transport> Transport for TimingTransport<T> {
    fn dispatch(&self, host: &str, job: &WorkerJob) -> Result<Box<dyn Flight>, String> {
        let dispatched = Instant::now();
        let result = self.inner.dispatch(host, job);
        let mut log = self
            .log
            .lock()
            .map_err(|_| "flight log poisoned".to_owned())?;
        let index = log.len();
        log.push(FlightRecord {
            host: host.to_owned(),
            dispatched,
            finished: None,
            bytes: 0,
            failed: result.is_err(),
            cancelled: false,
        });
        let inner = result?;
        Ok(Box::new(TimedFlight {
            inner,
            index,
            log: Arc::clone(&self.log),
        }))
    }
}

struct TimedFlight {
    inner: Box<dyn Flight>,
    index: usize,
    log: Log,
}

impl TimedFlight {
    fn update(&self, f: impl FnOnce(&mut FlightRecord)) {
        if let Ok(mut log) = self.log.lock() {
            if let Some(record) = log.get_mut(self.index) {
                f(record);
            }
        }
    }
}

impl Flight for TimedFlight {
    fn poll(&mut self) -> Option<Result<Vec<u8>, String>> {
        let result = self.inner.poll()?;
        let finished = Instant::now();
        let (bytes, failed) = match &result {
            Ok(bytes) => (bytes.len(), false),
            Err(_) => (0, true),
        };
        self.update(|r| {
            r.finished = Some(finished);
            r.bytes = bytes;
            r.failed = failed;
        });
        Some(result)
    }

    fn cancel(&mut self) {
        self.inner.cancel();
        // The launcher also cancels flights that already delivered; only
        // a flight cut short counts as cancelled.
        self.update(|r| r.cancelled |= r.finished.is_none());
    }
}
