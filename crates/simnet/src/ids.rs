//! Small typed identifiers for simulator entities.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(
            clippy::disallowed_methods,
            reason = "the derived partial_cmp compares one integer field, never a float"
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Index into dense per-entity vectors.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a link in the simulated topology.
    LinkId
);
id_type!(
    /// Identifies a flow (sender/receiver endpoint pair).
    FlowId
);
id_type!(
    /// Identifies a node (host or switch) in a [`crate::topo::Topology`].
    NodeId
);
id_type!(
    /// Identifies a directed edge in a [`crate::topo::Topology`]; maps to
    /// one simulator [`LinkId`] once the topology is installed.
    EdgeId
);

/// Which side of a flow an event or action refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Side {
    /// The data sender.
    Sender,
    /// The data receiver.
    Receiver,
}

/// Direction of a packet relative to its flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Direction {
    /// Sender -> receiver (data path).
    Forward,
    /// Receiver -> sender (ACK path).
    Reverse,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format() {
        assert_eq!(format!("{:?}", LinkId(3)), "LinkId(3)");
        assert_eq!(format!("{}", FlowId(9)), "9");
        assert_eq!(LinkId(7).index(), 7);
    }
}
