#include "obs/context.h"

#include "obs/flight.h"
#include "obs/trace.h"

namespace vod::obs {

Context::~Context() {
  set_trace(nullptr);
  set_flight(nullptr);
}

void Context::set_trace(TraceRecorder* recorder) {
  if (user_ != nullptr && user_ != recorder) release(*user_);
  user_ = recorder;
  if (user_ != nullptr) user_->context_ = this;
  rewire();
}

void Context::set_flight(FlightRecorder* recorder) {
  if (flight_ != nullptr && flight_ != recorder) release(flight_->ring());
  flight_ = recorder;
  if (flight_ != nullptr) flight_->ring().context_ = this;
  rewire();
}

void Context::rewire() {
  TraceRecorder* ring = flight_ != nullptr ? &flight_->ring() : nullptr;
  if (user_ != nullptr) user_->mirror_ = ring;
  sink_ = user_ != nullptr ? user_ : ring;
}

void Context::release(TraceRecorder& recorder) const {
  if (flight_ != nullptr && recorder.mirror_ == &flight_->ring()) {
    recorder.mirror_ = nullptr;
  }
  if (recorder.context_ == this) recorder.context_ = nullptr;
}

}  // namespace vod::obs
