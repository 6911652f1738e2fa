//! Type-erased events exchanged between actors.
//!
//! Every message in the simulation — a WiFi frame, a stream tuple, a
//! controller ping, a timer — is a concrete struct implementing [`Event`]
//! (which is blanket-implemented for any `'static + Debug` type). Actors
//! receive an [`EventBox`](crate::EventBox) (pooled or plain, see
//! [`crate::pool`]) and downcast to the types they understand, which
//! keeps the crates decoupled: `simnet` never needs to know about
//! checkpoint tokens, and `mobistreams` never needs to know about
//! Ethernet frames.

use std::any::Any;
use std::fmt;

/// A simulation event/message. Blanket-implemented for every
/// `'static + Debug` type; do not implement manually.
pub trait Event: Any + fmt::Debug + Send + Sync {
    /// Upcast to `&dyn Any` for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `Box<dyn Any>` for by-value downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// The event's type name, for traces and "unhandled event" panics.
    fn type_name(&self) -> &'static str;
}

impl<T: Any + fmt::Debug + Send + Sync> Event for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

/// A typed downcast failure: the event that arrived is not the type the
/// handler expected. Carries both type names so a mis-routed event is
/// immediately diagnosable instead of a bare `expect` panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisroutedEvent {
    /// The type the handler asked for.
    pub expected: &'static str,
    /// The type that actually arrived.
    pub actual: &'static str,
}

impl fmt::Display for MisroutedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mis-routed event: handler expected {}, got {}",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for MisroutedEvent {}

impl dyn Event {
    /// True if the boxed event is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.as_any().is::<T>()
    }

    /// Borrowing downcast.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.as_any().downcast_ref::<T>()
    }
}

/// Dispatch an event to per-type handlers. Expands to an
/// if-let-downcast chain; the final arm handles "no match". Accepts an
/// [`EventBox`](crate::EventBox) (the [`Actor::on_event`](crate::Actor)
/// argument) or a plain `Box<dyn Event>`.
///
/// ```
/// use simkernel::{match_event, Event, EventBox};
/// #[derive(Debug)] struct A(u32);
/// #[derive(Debug)] struct B;
/// let ev = EventBox::new(A(7));
/// let mut got = 0;
/// match_event!(ev,
///     a: A => { got = a.0; },
///     _b: B => { got = 99; },
///     @else other => { panic!("unhandled {}", other.type_name()); }
/// );
/// assert_eq!(got, 7);
/// ```
#[macro_export]
macro_rules! match_event {
    ($ev:expr, $( $name:ident : $ty:ty => $body:block ),+ , @else $fallback:ident => $fb:block ) => {{
        let mut __ev: $crate::EventBox = ::core::convert::Into::into($ev);
        #[allow(unreachable_code, clippy::never_loop)]
        loop {
            $(
                __ev = match __ev.downcast::<$ty>() {
                    Ok(__v) => {
                        let $name: $ty = __v;
                        $body
                        break;
                    }
                    Err(__e) => __e,
                };
            )+
            let $fallback = __ev;
            $fb
            break;
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::EventBox;

    #[derive(Debug, PartialEq)]
    struct Ping(u64);
    #[derive(Debug)]
    struct Pong;

    #[test]
    fn downcast_ref_and_is() {
        let ev = EventBox::new(Ping(9));
        assert!(ev.is::<Ping>());
        assert!(!ev.is::<Pong>());
        assert_eq!(ev.downcast_ref::<Ping>(), Some(&Ping(9)));
        assert!(ev.downcast_ref::<Pong>().is_none());
    }

    #[test]
    fn consuming_downcast_success_and_recovery() {
        let ev = EventBox::new(Ping(3));
        let ev = match ev.downcast::<Pong>() {
            Ok(_) => panic!("wrong type matched"),
            Err(original) => original,
        };
        let ping = ev.downcast::<Ping>().expect("should match Ping");
        assert_eq!(ping, Ping(3));
    }

    #[test]
    fn type_name_reports_concrete_type() {
        let ev = EventBox::new(Pong);
        // Note: call through the deref — `EventBox` itself satisfies the
        // blanket impl, so `ev.type_name()` would name the EventBox.
        assert!((*ev).type_name().ends_with("Pong"));
    }

    #[test]
    fn downcast_expected_names_both_types() {
        let ev = EventBox::new(Ping(4));
        let err = ev.downcast_expected::<Pong>().unwrap_err();
        assert!(
            err.expected.ends_with("Pong"),
            "expected = {}",
            err.expected
        );
        assert!(err.actual.ends_with("Ping"), "actual = {}", err.actual);
        let msg = err.to_string();
        assert!(msg.contains("mis-routed"), "message = {msg}");

        let ev = EventBox::new(Ping(4));
        assert_eq!(ev.downcast_expected::<Ping>().unwrap(), Ping(4));
    }

    #[test]
    fn match_event_dispatch() {
        let ev = EventBox::new(Pong);
        #[allow(unused_assignments)]
        let mut hit = "";
        match_event!(ev,
            _p: Ping => { hit = "ping"; },
            _q: Pong => { hit = "pong"; },
            @else _other => { hit = "none"; }
        );
        assert_eq!(hit, "pong");
    }

    #[test]
    fn match_event_fallback() {
        #[derive(Debug)]
        struct Mystery;
        let ev = EventBox::new(Mystery);
        #[allow(unused_assignments)]
        let mut hit = "";
        match_event!(ev,
            _p: Ping => { hit = "ping"; },
            @else other => { hit = if other.is::<Mystery>() { "mystery" } else { "?" }; }
        );
        assert_eq!(hit, "mystery");
    }
}
