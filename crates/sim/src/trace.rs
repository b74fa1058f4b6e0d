//! Structured event trace.
//!
//! Every layer of the simulator appends [`TraceEntry`]s to a shared
//! [`Trace`]: mode transitions, fault reports, migrations, packet drops.
//! Experiments then query the trace to locate e.g. "the instant the backup
//! went Active" without having to thread ad-hoc channels through the stack.

use std::fmt;

use crate::SimTime;

/// One recorded simulation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event happened.
    pub at: SimTime,
    /// Category tag, e.g. `"vc"`, `"mac"`, `"fault"`, `"migration"`:
    /// one of a fixed set, so an entry stores it without allocating.
    pub category: &'static str,
    /// Human-readable (and grep-able) description.
    pub message: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:<10} {}",
            self.at, self.category, self.message
        )
    }
}

/// An append-only, time-ordered log of simulation events.
///
/// # Example
///
/// ```
/// use evm_sim::{SimTime, Trace};
/// let mut trace = Trace::new();
/// trace.log(SimTime::from_secs(300), "fault", "Ctrl-A stuck at 75%");
/// assert_eq!(trace.of_category("fault").count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `at` is earlier than the last entry;
    /// traces are recorded in simulation order by construction.
    pub fn log(&mut self, at: SimTime, category: &'static str, message: impl Into<String>) {
        if let Some(last) = self.entries.last() {
            debug_assert!(at >= last.at, "trace must be appended in time order");
        }
        self.entries.push(TraceEntry {
            at,
            category,
            message: message.into(),
        });
    }

    /// All entries in time order.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Iterator over entries with the given category.
    pub fn of_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| e.category == category)
    }

    /// First entry whose message contains `needle`, if any.
    #[must_use]
    pub fn find(&self, needle: &str) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.message.contains(needle))
    }

    /// Time of the first entry whose message contains `needle`.
    #[must_use]
    pub fn time_of(&self, needle: &str) -> Option<SimTime> {
        self.find(needle).map(|e| e.at)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the whole trace, one entry per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_query() {
        let mut t = Trace::new();
        t.log(SimTime::from_secs(1), "vc", "Ctrl-A -> Active");
        t.log(SimTime::from_secs(300), "fault", "Ctrl-A output anomaly");
        t.log(SimTime::from_secs(600), "vc", "Ctrl-B -> Active");
        assert_eq!(t.len(), 3);
        assert_eq!(t.of_category("vc").count(), 2);
        assert_eq!(t.time_of("Ctrl-B -> Active"), Some(SimTime::from_secs(600)));
        assert!(t.find("nonexistent").is_none());
    }

    #[test]
    fn render_contains_all_messages() {
        let mut t = Trace::new();
        t.log(SimTime::ZERO, "a", "first");
        t.log(SimTime::from_millis(1), "b", "second");
        let s = t.render();
        assert!(s.contains("first") && s.contains("second"));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time order")]
    fn out_of_order_panics_in_debug() {
        let mut t = Trace::new();
        t.log(SimTime::from_secs(2), "a", "later");
        t.log(SimTime::from_secs(1), "a", "earlier");
    }
}
