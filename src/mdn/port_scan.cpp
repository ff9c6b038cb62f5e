#include "mdn/port_scan.h"

#include <unordered_set>

namespace mdn::core {

PortScanReporter::PortScanReporter(net::Switch& sw, mp::MpEmitter& emitter,
                                   const FrequencyPlan& plan,
                                   DeviceId device, PortScanConfig config)
    : emitter_(emitter), plan_(plan), device_(device), config_(config) {
  sw.add_packet_hook([this](const net::Packet& pkt, std::size_t) {
    if (emitter_.admit()) {
      emitter_.send(frequency_for_port(pkt.flow.dst_port),
                    config_.tone_duration_s, config_.intensity_db_spl);
    }
  });
}

std::size_t PortScanReporter::symbol_for_port(std::uint16_t dst_port) const {
  const std::size_t n = plan_.symbol_count(device_);
  const auto offset = static_cast<std::size_t>(
      dst_port >= config_.first_port ? dst_port - config_.first_port
                                     : dst_port);
  return offset % n;
}

double PortScanReporter::frequency_for_port(std::uint16_t dst_port) const {
  return plan_.frequency(device_, symbol_for_port(dst_port));
}

PortScanDetector::PortScanDetector(MdnController& controller,
                                   const FrequencyPlan& plan,
                                   DeviceId device, PortScanConfig config)
    : config_(config), symbol_count_(plan.symbol_count(device)) {
  for (std::size_t s = 0; s < symbol_count_; ++s) {
    controller.watch(plan.frequency(device, s),
                     [this, s](const ToneEvent& ev) { on_event(s, ev); });
  }
}

std::size_t PortScanDetector::distinct_in_window(double now_s) const {
  while (!window_.empty() && now_s - window_.front().first > config_.window_s) {
    window_.pop_front();
  }
  std::unordered_set<std::size_t> distinct;
  for (const auto& [t, sym] : window_) distinct.insert(sym);
  return distinct.size();
}

void PortScanDetector::on_event(std::size_t symbol, const ToneEvent& event) {
  ++events_;
  window_.emplace_back(event.time_s, symbol);
  const std::size_t distinct = distinct_in_window(event.time_s);
  if (distinct >= config_.distinct_threshold) {
    if (!alerted_) {
      alerted_ = true;
      Alert alert{event.time_s, distinct};
      alerts_.push_back(alert);
      if (handler_) handler_(alert);
    }
  } else {
    alerted_ = false;
  }
}

}  // namespace mdn::core
