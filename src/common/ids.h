// Strong identifier types shared across the library.
//
// Every entity in the system (network node, link, video title, session, ...)
// is referred to by a small integer handle.  Using a distinct C++ type per
// entity kind turns "passed a link id where a node id was expected" into a
// compile error instead of a silent wrong answer.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <ostream>

namespace vod {

/// A strongly-typed integer identifier.  `Tag` is a phantom type used only
/// to make different id kinds incompatible with each other.
template <typename Tag>
class TaggedId {
 public:
  using underlying_type = std::uint32_t;

  /// Default-constructed ids are invalid; `valid()` returns false.
  constexpr TaggedId() = default;
  constexpr explicit TaggedId(underlying_type value) : value_(value) {}

  [[nodiscard]] constexpr underlying_type value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr auto operator<=>(TaggedId, TaggedId) = default;

  friend std::ostream& operator<<(std::ostream& os, TaggedId id) {
    if (!id.valid()) return os << "<invalid>";
    return os << id.value_;
  }

 private:
  static constexpr underlying_type kInvalid =
      std::numeric_limits<underlying_type>::max();
  underlying_type value_ = kInvalid;
};

struct NodeTag {};
struct LinkTag {};
struct VideoTag {};
struct SessionTag {};
struct ClientTag {};
struct FlowTag {};

/// A network node (a site in the backbone; in this paper every node hosts a
/// video server, so NodeId doubles as the server identifier).
using NodeId = TaggedId<NodeTag>;
/// An undirected network link between two nodes.
using LinkId = TaggedId<LinkTag>;
/// A video title in the catalog.
using VideoId = TaggedId<VideoTag>;
/// A client streaming session.
using SessionId = TaggedId<SessionTag>;
/// A client endpoint (identified to the service by its IP address).
using ClientId = TaggedId<ClientTag>;
/// An active bandwidth flow in the fluid network model.
using FlowId = TaggedId<FlowTag>;

}  // namespace vod

namespace std {
template <typename Tag>
struct hash<vod::TaggedId<Tag>> {
  size_t operator()(vod::TaggedId<Tag> id) const noexcept {
    return std::hash<typename vod::TaggedId<Tag>::underlying_type>{}(
        id.value());
  }
};
}  // namespace std
